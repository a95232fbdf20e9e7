"""The benchmark tracer's targets must exist in ``cycover``.

``perfbench/tracer.py`` wraps functions and methods by name for a traced
benchmark run, and stops with a ``KeyError`` on a name that is gone.
Nothing else in the tests imports it, so a deletion in the library could
otherwise break the traced runs unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, attribute) for _, module, attribute in tracer.SPANS]
    targets += [(module, attribute) for _, module, attribute in tracer.COUNTERS]
    targets.append(tracer.ARC)
    return targets


def _resolves(module_name: str, attribute: str) -> bool:
    module = importlib.import_module(module_name)
    if "." in attribute:
        # The tracer replaces a method in its class's own namespace.
        owner_name, method = attribute.split(".")
        owner = getattr(module, owner_name, None)
        return owner is not None and method in vars(owner)
    return callable(getattr(module, attribute, None))


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    missing = [
        f"{module}.{attribute}"
        for module, attribute in targets
        if not module.startswith("cycover") or not _resolves(module, attribute)
    ]
    assert missing == []
