"""Generalized Simon's problem: instances, solvers, bounds, and simulation."""

from .algebra import (
    DEFAULT_ENUMERATION_CAP,
    Subgroup,
    VectorP,
    canonicalize,
    complement,
    enumerate_subgroups,
    is_prime,
    orthogonal,
    random_subgroup,
    trivial_subgroup,
)
from .bounds import (
    BoundReport,
    bound_report,
    det_query_bound,
    evading_subgroup,
    optimal_d,
    t1_count,
    t2_count,
)
from .errors import (
    DimensionMismatchError,
    GspError,
    ParameterError,
    PromiseViolationError,
    ResourceCapError,
)
from .oracle import (
    HiddenInstance,
    QueryLog,
    instance_from_text,
    instance_to_text,
    make_instance,
    read_instance,
    write_instance,
)
from .qsim import (
    QCounter,
    SparseState,
    apply_oracle,
    dump_state_text,
    exact_amplify,
    fourier,
    quantum_find_s,
    shrink_subgroup,
)
from .solvers import (
    SolverResult,
    birthday_solve,
    brute_force_solve,
    choose_d,
    find_group,
    find_s,
)

__version__ = "0.1.0"
