import os
import tempfile

from hypothesis import configuration

# Even without a database, Hypothesis caches the literals it mines from
# local modules under its home directory; keep that out of the checkout.
configuration.set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "axialtrack-hypothesis"))
