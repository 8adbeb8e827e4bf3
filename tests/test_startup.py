"""Every `wdexp` command, and every benchmark round, starts with a fresh
import of the package, so code that a module generates at import time is
paid again each time.  A dataclass generates and `exec`s its methods when
its module is imported; the records and value types are NamedTuples and
slotted classes instead, and `GenParams` stays the one dataclass because
`dataclasses.replace(params, seed=...)` is its API."""

import importlib
import inspect
import pkgutil

import wdexp


def test_gen_params_is_the_only_dataclass():
    names = ["wdexp"] + [f"wdexp.{m.name}" for m in pkgutil.iter_modules(wdexp.__path__)]
    found = [f"{name}.{attr}" for name in names
             for attr, cls in vars(importlib.import_module(name)).items()
             if inspect.isclass(cls) and cls.__module__ == name
             and "__dataclass_fields__" in vars(cls)]
    assert found == ["wdexp.generator.GenParams"]
