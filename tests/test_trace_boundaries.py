"""The traced benchmark (`wdbench/run.py --trace 1`) wraps the wdexp
functions listed in `wdbench/tracing.BOUNDARIES`, looking each one up by
name on a fresh import.  Renaming or deleting one of them breaks that run,
so every listed name must resolve here."""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "wdbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("wdbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_boundaries_resolve_on_fresh_import():
    tracing = _load_tracing()
    saved = {n: m for n, m in sys.modules.items() if n == "wdexp" or n.startswith("wdexp.")}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("wdexp")
        importlib.import_module("wdexp.cli")
        modules = {m for m, _, _ in tracing.BOUNDARIES}
        wd = types.SimpleNamespace(**{m: sys.modules[f"wdexp.{m}"] for m in modules})
        for module, attr, _ in tracing.BOUNDARIES:
            owner = getattr(wd, module)
            for part in attr.split("."):
                assert hasattr(owner, part), f"wdexp.{module}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"wdexp.{module}.{attr} is not callable"
        rec = tracing.Recorder()
        tracing.install(rec, wd)
        assert wd.cli.run_command(["check", "--models", "1", "--pairs", "1"]) == 0
        names = {span[2] for span in rec.spans}
        assert {"cli.run_command", "model.digest", "bounds.check"} <= names
    finally:
        for name in [n for n in sys.modules if n == "wdexp" or n.startswith("wdexp.")]:
            del sys.modules[name]
        sys.modules.update(saved)
