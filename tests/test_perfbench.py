"""The benchmark tracer's patch plan, built without installing it, so a
name it wraps that is deleted or moved fails here and not only in
``perfbench/smoke.py``."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_plans_a_patch_for_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    t._plan_all()
    planned = {(owner, attr) for owner, attr, _, _ in t._patches}
    for owner, attr, _ in tracer.LAYERS + tracer.COUNTERS:
        assert (owner, attr) in planned
    # planning replaces nothing
    for owner, attr, raw, _ in t._patches:
        assert _current(owner, attr) is raw
