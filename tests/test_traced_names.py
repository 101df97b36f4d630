"""Every target the benchmark tracer names is a function of the package.

``perfbench/tracer.py`` wraps package functions by "module:qualname"; a
renamed or deleted one would only fail when the benchmark runs.  The tracer
is loaded from its file, read and never edited or installed here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_package_function():
    tracer = load_tracer()
    shorts = {spec.split(":")[0] for specs in tracer.ENTRIES.values() for spec in specs}
    modules = {short: importlib.import_module(f"{tracer.PACKAGE}.{short}") for short in shorts}
    targets = tracer.Tracer.resolve_targets()
    missing = []
    for target in targets:
        short, qual = target.split(":")
        owner = modules[short]
        for name in qual.split("."):
            owner = vars(owner).get(name) if owner is not None else None
        if isinstance(owner, (staticmethod, classmethod)):
            owner = owner.__func__
        if not inspect.isfunction(owner):
            missing.append(target)
    assert missing == []
    # the four form-layer names the tracer pins one by one
    assert {"cecalc:ce_forms", "cecalc:ce_coboundary_matrix", "cecalc:wedge",
            "cecalc:MinimalCalculus.__init__"} <= set(targets)
