"""One benchmark sample: runs one fracpm CLI command in this fresh process.

    python3 perfbench/child.py --result R.json --mode time|trace|warm
        --setup MODULE:FUNCTION --run-id N -- <fracpm CLI arguments>

The parent puts the checkout's `src` on PYTHONPATH. In `time` mode the
only probe is one timestamp taken when the set-up call first returns. In
`trace` mode every call in layers.TRACED records a span. `warm` imports
fracpm and exits, so that bytecode and shared libraries are cached before
anything is timed. The result file holds time.monotonic() stamps, which
the parent compares with its own clock, the exit code and the peak RSS of
this process (RUSAGE_SELF, so no other process is counted).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import sys
import time

from layers import TRACED


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _patch(module, path, make_wrapper):
    """Replace module.path by make_wrapper(original), in every binding.

    Methods are replaced on their class. A module-level function is also
    replaced in each fracpm module that imported it by name.
    """
    owner, attr = _resolve(module, path)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if owner is not sys.modules[module]:
        setattr(owner, attr, wrapper)
        return
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "fracpm" and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _points(args, kwargs):
    import numpy as np

    return int(np.asarray(args[1]).size // 2)


def _distance_points(args, kwargs):
    import numpy as np

    return int(np.size(args[1]))


def _matrix_bytes(args, kwargs, result):
    if hasattr(result, "indptr"):
        return int(result.data.nbytes + result.indices.nbytes + result.indptr.nbytes)
    return int(result.nbytes)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> work measured from the call arguments (before) or result (after)
WORK_BEFORE = {
    "curves.ewald_evaluate": _points,
    "curves.circle_distance": _distance_points,
}
WORK_AFTER = {
    "linearop.assemble": _matrix_bytes,
    "linearop.assemble_sparse": _matrix_bytes,
    "fieldio.write_field": _file_bytes,
    "fieldio.write_csv": _file_bytes,
    "fieldio.write_json": _file_bytes,
}


class Tracer:
    """Spans kept in memory; see layers.py for the span layout."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrapper(self, name):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        before = WORK_BEFORE.get(name)
        after = WORK_AFTER.get(name)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, 0]
                stack.append(len(spans))
                spans.append(span)
                if before is not None:
                    span[5] = before(args, kwargs)
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    stack.pop()
                if after is not None:
                    span[5] = after(args, kwargs, result)
                return result

            return traced

        return make


def _stamp_first_return(stamps):
    def make(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            result = fn(*args, **kwargs)
            stamps.setdefault("setup_done", time.monotonic())
            return result

        return timed

    return make


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("time", "trace", "warm"), required=True)
    parser.add_argument("--setup", required=True)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import fracpm
    import fracpm.cli

    src = os.path.realpath(args.src)
    if not os.path.realpath(fracpm.__file__).startswith(src + os.sep):
        print(f"fracpm was imported from {fracpm.__file__}, not {src}", file=sys.stderr)
        return 97
    for module in {m for m, _, _ in TRACED}:
        importlib.import_module(module)

    record = {}
    stamps = {}
    if args.mode == "trace":
        tracer = Tracer(args.run_id)
        for module, path, name in TRACED:
            _patch(module, path, tracer.wrapper(name))
    elif args.mode == "time":
        module, _, path = args.setup.partition(":")
        _patch(module, path, _stamp_first_return(stamps))
    if args.mode != "warm":
        rc = fracpm.cli.main(cli_args)
        record["exit_code"] = int(rc)
        record.update(stamps)
        if args.mode == "trace":
            record["spans"] = tracer.spans
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
