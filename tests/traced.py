"""The traced peak of a call, which each declared peak (`attention.pass_peak`,
`deform.sampling_peak`, `segmenter.decoder_peak`, `heatmaps.clip_peak`,
`config.run_peak`) must bound."""

import tracemalloc


def traced_peak(fn, *args) -> int:
    """Traced bytes that `fn(*args)` holds at its peak above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
