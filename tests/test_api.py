"""The public API: ``__all__`` of the package and of each module, pinned.

A name leaves (or joins) the API only by editing this file.  The names the
benchmark harness imports from the package must stay importable too.
"""

import ast
import importlib
import inspect
import itertools
from pathlib import Path

import flatbasket
from flatbasket import errors, search

PUBLIC = {
    "flatbasket": {
        "FlatBasketCode", "UnderlyingDiagram", "SurfaceStats", "SeifertMatrix",
        "IntPolynomial", "AlexanderPolynomial", "parse_code", "parse_matching",
        "parse_polynomial", "underlying", "boundary_components", "surface_stats",
        "canonicalize", "relabel", "seifert_matrix", "symmetrized",
        "pencil_determinant", "normalize_alexander", "alexander",
        "knot_determinant", "arf", "signature", "__version__",
    },
    "flatbasket.bounds": {"FpbkBound", "fpbk_lower_bound"},
    "flatbasket.cli": {"build_parser", "cli_dispatch", "main"},
    "flatbasket.codes": {
        "FlatBasketCode", "UnderlyingDiagram", "SurfaceStats", "parse_code",
        "parse_matching", "underlying", "boundary_components", "surface_stats",
        "surface_genus", "canonicalize", "canonical_word", "relabel",
    },
    "flatbasket.invariants": {
        "IntPolynomial", "AlexanderPolynomial", "parse_polynomial",
        "pencil_determinant", "normalize_alexander", "alexander",
        "knot_determinant", "determinant_from_alexander", "arf",
        "arf_from_determinant", "signature",
    },
    "flatbasket.passclass": {
        "PassClass", "OrbitReport", "pass_class", "labeling_orbit",
        "orbit_invariant_check",
    },
    "flatbasket.pushdown": {
        "RectilinearDiagram", "Connector", "XLineClass", "PushStep",
        "FlattenResult", "parse_diagram", "load_diagram", "diagram_to_text",
        "validate_diagram", "classify_xlines", "push_down", "flatten",
        "flatten_trace", "diagram_seifert_matrix",
    },
    "flatbasket.search": {
        "SearchQuery", "SearchRecord", "enumerate_matchings", "enumerate_codes",
        "search", "census", "record_to_json", "write_store",
    },
    "flatbasket.seifert": {"SeifertMatrix", "seifert_matrix", "symmetrized", "format_rows"},
    "flatbasket.tables": {
        "KnotRecord", "RowResult", "TableReport", "load_table", "load_references",
        "verify_table", "CHECK_NAMES",
    },
}

# errors has no __all__: its public names are the exception classes it defines
ERRORS = {
    "CapExceeded", "DuplicateColumn", "DuplicateHeight", "EmptyInput",
    "FlatBasketError", "FootOrderViolation", "GenusContradiction",
    "InvalidPermutation", "InvariantViolation", "MalformedCode",
    "MalformedDiagram", "MissingReference", "NonContiguousLabels", "NotAKnot",
    "ParseError", "SiteNotEligible", "StoreMismatch", "TrivialKnotInput",
}


def test_all_of_every_module_is_pinned():
    modules = {
        f"flatbasket.{path.stem}"
        for path in Path(flatbasket.__file__).parent.glob("*.py")
        if path.stem != "__init__"
    }
    assert modules | {"flatbasket"} == set(PUBLIC) | {"flatbasket.errors"}
    for name, expected in PUBLIC.items():
        module = importlib.import_module(name)
        assert len(module.__all__) == len(set(module.__all__)), name
        assert set(module.__all__) == expected, name
        for public in module.__all__:
            assert hasattr(module, public), (name, public)
    assert not hasattr(errors, "__all__")
    defined = {
        name for name, value in vars(errors).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == errors.__name__
    }
    assert defined == ERRORS


def test_benchmark_harness_imports_stay_importable():
    workloads = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    imported = 0
    for node in ast.walk(ast.parse(workloads.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("flatbasket"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
                imported += 1
    assert imported >= 20
    # the harness counts labelings by swapping this module global
    assert search.permutations is itertools.permutations
    assert "method" in inspect.signature(flatbasket.alexander).parameters
    assert "method" in inspect.signature(flatbasket.pencil_determinant).parameters
