"""The benchmark's tracer binds names of the package that still exist."""
import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_exist_in_the_package():
    """Every function the tracer wraps is in its module and every oracle
    method it wraps is on each body class, so deleting a traced name fails
    here and not only in a traced benchmark run."""
    tracing = load_tracing()
    missing = []
    for table in (tracing.SPAN_FUNCS, tracing.HOT_FUNCS):
        for modname, names in table.items():
            module = importlib.import_module(f"hollowkit.{modname}")
            missing += [f"{modname}.{name}" for name in names
                        if not callable(getattr(module, name, None))]
    bodies = importlib.import_module("hollowkit.bodies")
    for cls_name in tracing.KINDS:
        cls = getattr(bodies, cls_name, None)
        if cls is None:
            missing.append(f"bodies.{cls_name}")
            continue
        missing += [f"bodies.{cls_name}.{meth}" for meth in tracing.HOT_METHODS
                    if not callable(getattr(cls, meth, None))]
    assert tracing.SPAN_FUNCS and tracing.HOT_METHODS and tracing.KINDS
    assert missing == []
