"""Fresh-process probes, started by run.py; each prints one JSON line.

    probe.py setup SRC MODEL
        seconds from just before `import repcount.cli` until a SessionEngine
        exists with the model file loaded (import, load_model, the built-in
        profiles and construction: what `repcount analyze` pays before its
        first frame), and the host slowness sampled right after it.
    probe.py rss SRC MODEL INPUT OUT_JSON OUT_TEXT
        one `repcount analyze` of INPUT, then this process's peak RSS.
"""
from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

SETUP_HOST_SAMPLES = 3


def setup(src: str, model_path: str) -> dict:
    sys.path.insert(0, src)
    start = perf_counter()
    import repcount.cli  # noqa: F401  (the import is what is being timed)
    from repcount.kinematics import builtin_profiles
    from repcount.pipeline import SessionEngine
    from repcount.recognizer import load_model

    model, thresholds = load_model(model_path)
    SessionEngine(model=model, thresholds=thresholds, profiles=builtin_profiles())
    elapsed = perf_counter() - start

    from hostspeed import HostSpeed

    host = HostSpeed()
    for _ in range(SETUP_HOST_SAMPLES):
        host.sample()
    return {"setup_s": elapsed, "slowness": host.slowness()}


def rss(src: str, model_path: str, input_path: str, out_json: str, out_text: str) -> dict:
    sys.path.insert(0, src)
    from repcount import cli

    code = cli.main(["analyze", input_path, "--model", model_path,
                     "--out-json", out_json, "--out-text", out_text])
    # ru_maxrss is in KiB on Linux
    return {"exit_code": code,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


if __name__ == "__main__":
    probes = {"setup": setup, "rss": rss}
    print(json.dumps(probes[sys.argv[1]](*sys.argv[2:])))
