"""Self-organizing sequential search.

Simulate the move-to-front, transpose, and frequency-count list-accessing
policies under the full and partial cost models, generate
repeated-permutation request sequences, evaluate exact closed-form cost
formulas for move-to-front and transpose on those sequences, and verify
formulas against simulation cell by cell.

Importing the package loads none of its modules (PEP 562): the first use
of a public name loads ``_MODULES`` up to the one that declares it, so the
closed forms load only ``errors`` and ``closed_form``.
"""

from importlib import import_module

__version__ = "0.1.0"

# At module level, each module imports only modules before it.
_MODULES = ("errors", "closed_form", "list_core", "seqgen", "policies", "harness")


def __getattr__(name: str):
    names = []
    for module_name in _MODULES:
        module = import_module(f"{__name__}.{module_name}")
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)
            return value
        names += module.__all__
    if name == "__all__":
        globals()[name] = names
        return names
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
