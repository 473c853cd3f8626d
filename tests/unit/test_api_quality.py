"""Meta-tests on API quality: every public item is documented.

"Production-quality" here is checkable: public modules, classes, and
functions across the package must carry docstrings, and the package
exports must resolve.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.symbolic",
    "repro.regions",
    "repro.fortran",
    "repro.hsg",
    "repro.dataflow",
    "repro.deptest",
    "repro.privatize",
    "repro.parallelize",
    "repro.machine",
    "repro.driver",
    "repro.codegen",
    "repro.kernels",
]


def all_modules():
    """Each listed package and its direct submodules and subpackages,
    once each (``repro``'s walk also yields the listed subpackages)."""
    out = {}
    for name in PACKAGES:
        out[name] = importlib.import_module(name)
        for info in pkgutil.iter_modules(out[name].__path__):
            sub = f"{name}.{info.name}"
            out[sub] = importlib.import_module(sub)
    return list(out.values())


@pytest.mark.parametrize(
    "module", all_modules(), ids=lambda m: m.__name__
)
def test_module_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize(
    "module", all_modules(), ids=lambda m: m.__name__
)
def test_public_items_documented(module):
    missing = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its definition site
        if not (obj.__doc__ and obj.__doc__.strip()):
            missing.append(name)
        if inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_") or not inspect.isfunction(member):
                    continue
                if not (member.__doc__ and member.__doc__.strip()):
                    # inherited docstrings and trivial dunders excluded by
                    # the underscore filter; require the rest
                    missing.append(f"{name}.{mname}")
    assert not missing, f"{module.__name__}: undocumented {missing}"


def test_all_exports_resolve():
    """Every ``__all__`` name resolves, also through the lazy façade's
    own ``__getattr__`` once an earlier lookup has cached it."""
    for name in PACKAGES:
        module = importlib.import_module(name)
        resolve = vars(module).get("__getattr__")
        for item in getattr(module, "__all__", []):
            assert hasattr(module, item), f"{name}.__all__ lists {item}"
            if resolve is not None and item != "__version__":
                assert resolve(item) is getattr(module, item), f"{name}.{item}"


def test_version():
    assert repro.__version__
