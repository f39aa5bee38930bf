"""Deterministic streaming matrix sketching with relative-error guarantees.

The core object is :class:`FdSketch`: feed it rows, ask it for a small
matrix whose Gram matrix under-approximates the stream's within a budget
that shrinks as the sketch grows. Heavy-hitter counters, sketch merging,
a bound-verification harness, executable counterexamples, and file formats
round out the package.
"""
import importlib

__version__ = "0.1.0"

# every public name, by the submodule that defines it. Importing the package
# loads none of them: a name loads its submodule on first use, so a command
# loads only what it runs, and ``python -m fdsketch.verify`` does not find
# the module already imported by the package and run it twice
_SOURCES = {
    "bounds": ("ErrorReport", "error_report", "sketch_rows_for"),
    "sketch": ("FdParams", "FdSketch"),
    "heavy_hitters": ("MgSummary", "MgCertificate", "error_certificate"),
    "linalg": (
        "SvdFactors", "SvdError", "GapRange", "svd_thin", "best_rank_k",
        "project_rowspace", "frob_sq", "directional_norm_gap",
    ),
    "counterexamples": (
        "gen_adversary", "incremental_pca", "compare_on_adversary",
        "SparseFdInstance", "orthogonal_residual_min", "sparse_fd_check",
        "sparse_feasibility_grid",
    ),
    "verify": ("TrialConfig", "TrialOutcome", "run_trial", "run_suite", "default_grid"),
    "io": ("save_sketch", "load_sketch", "read_rows", "write_rows"),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str):
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE_OF))


__all__ = [
    "FdSketch",
    "FdParams",
    "ErrorReport",
    "error_report",
    "sketch_rows_for",
    "MgSummary",
    "MgCertificate",
    "error_certificate",
    "SvdFactors",
    "SvdError",
    "GapRange",
    "svd_thin",
    "best_rank_k",
    "project_rowspace",
    "frob_sq",
    "directional_norm_gap",
    "gen_adversary",
    "incremental_pca",
    "compare_on_adversary",
    "SparseFdInstance",
    "orthogonal_residual_min",
    "sparse_fd_check",
    "sparse_feasibility_grid",
    "TrialConfig",
    "TrialOutcome",
    "run_trial",
    "run_suite",
    "default_grid",
    "save_sketch",
    "load_sketch",
    "read_rows",
    "write_rows",
    "__version__",
]
