"""The benchmark tracer's patch list against the package: every traced name must exist.

``perfbench/tracing.py`` replaces each (owner, attribute) it lists for the
length of one traced operation, reading ``owner.__dict__[attribute]``; a
name that was renamed or deleted would only show up as a KeyError in a
traced benchmark run.  The module is loaded from its file and only read.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patches = tracing.Tracer()._patches()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in patches
               if attr not in owner.__dict__]
    assert patches and not missing, f"perfbench/tracing.py patches missing names {missing}"
