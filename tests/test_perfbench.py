"""perfbench/run.py's traced mode wraps functions that exist."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_trace_targets_resolve(monkeypatch):
    # `perfbench/run.py --trace 1` wraps every (module, attribute) pair of
    # trace_targets; one renamed or deleted in notforest breaks that run.
    monkeypatch.syspath_prepend(PERFBENCH)
    run = importlib.import_module("run")
    pairs = {(module, attr) for module, attr, _ in run.trace_targets()}
    assert len(pairs) == 29
    for module, attr in pairs:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
