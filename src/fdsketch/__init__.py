"""Deterministic streaming matrix sketching with relative-error guarantees.

The core object is :class:`FdSketch`: feed it rows, ask it for a small
matrix whose Gram matrix under-approximates the stream's within a budget
that shrinks as the sketch grows. Heavy-hitter counters, sketch merging,
a bound-verification harness, executable counterexamples, and file formats
round out the package.
"""
from .heavy_hitters import MgCertificate, MgSummary, error_certificate
from .linalg import (
    GapRange,
    SvdError,
    SvdFactors,
    best_rank_k,
    directional_norm_gap,
    frob_sq,
    project_rowspace,
    svd_thin,
)
from .sketch import (
    ErrorReport,
    FdParams,
    FdSketch,
    error_report,
    sketch_rows_for,
)
from .counterexamples import (
    SparseFdInstance,
    compare_on_adversary,
    gen_adversary,
    incremental_pca,
    orthogonal_residual_min,
    sparse_fd_check,
    sparse_feasibility_grid,
)
from .io import load_sketch, read_rows, save_sketch, write_rows

__version__ = "0.1.0"

# loaded on first use, so that ``python -m fdsketch.verify`` does not find the
# module already imported by the package and run it twice
_VERIFY_NAMES = frozenset(
    {"TrialConfig", "TrialOutcome", "default_grid", "run_suite", "run_trial"}
)


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
