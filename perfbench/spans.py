"""Outside-in layer trace: timing spans around the public functions of nesth2.

The program itself records nothing. `installed` swaps each function named in
TRACED by a wrapper in every nesth2 module namespace that holds it (modules
import these names directly, as in `from .linalg import solve_lyapunov`), so
calls from inside the package are seen as well as calls from outside.

A wrapper records a span only while a request is open on the recorder; calls
made during set-up or by the benchmark's own output checks pass straight
through. A span has the schema (name, start, end, parent, request): the
parent is the recorder index of the enclosing span, or None at the top of a
request. Spans of one request share its request id.
"""

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

TRACED = {
    "plant": ("check_assumptions", "load_plant"),
    "linalg": ("solve_are", "axis_rank_ok", "pbh_stabilizable",
               "solve_lyapunov", "solve_sylvester", "h2_norm",
               "stable_antistable_decompose"),
    "statespace": ("lft_lower", "minreal", "balance_realization"),
    "stabilization": ("nominal_gains", "youla_data", "q_from_controller",
                      "controller_from_q"),
    "synthesis": ("optimal_controller", "solve_four_ares", "solve_phi_psi",
                  "centralized_h2"),
    "validation": ("hat_pair", "closed_loop_gramian",
                   "orthogonality_residuals", "delta_cost",
                   "youla_parameters", "structured_optimality_residual",
                   "fixed_point_maps", "vectorization_oracle",
                   "simulated_error_covariance"),
    "_kernels": ("terminal_state_covariance",),
    "cli": ("main",),
}

#: the clock of every span and request: CPU time of this process. The
#: benchmark runs on one thread (one BLAS thread too), so on an idle machine
#: this is the elapsed time; unlike elapsed time it leaves out the stretches
#: in which the host runs another guest on this core (steal time), which
#: move a whole run by 20-40 % on a shared machine.
CLOCK = time.process_time

SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items()
                   for fn in fns)

#: spans that also report their inclusive time
TOTAL_TIME = tuple(f"validation.{fn}" for fn in TRACED["validation"]) \
    + ("synthesis.optimal_controller",)


def _kernel_work(args):
    """Path steps and flops of one Euler path-kernel call."""
    A, B = args["A"], args["B"]
    steps = int(args["n_steps"]) * int(args["n_paths"])
    n, n_w = A.shape[0], B.shape[1]
    return {"path_steps": steps, "flops": 2 * steps * n * (n + n_w)}


def _lyapunov_work(args):
    """Bytes of the dense Kronecker operator: n^2 x n^2 doubles."""
    n = args["Q"].shape[0]
    return {"kron_bytes": 8 * (n * n) ** 2}


def _sylvester_work(args):
    """Bytes of the dense Kronecker operator: (rows cols)^2 doubles."""
    rows, cols = args["A0"].shape
    return {"kron_bytes": 8 * (rows * cols) ** 2}


def _coupling_work(args):
    """Side of the stacked (X_cross, Y_cross) system: 2 n1 n2."""
    plant = args["plant"]
    return {"system_side": 2 * plant.n1 * plant.n2}


#: work counts computed from call arguments, not measured; summed per pass
#: except system_side, which is the largest per pass
COMPUTED = {
    "_kernels.terminal_state_covariance": _kernel_work,
    "linalg.solve_lyapunov": _lyapunov_work,
    "linalg.solve_sylvester": _sylvester_work,
    "synthesis.solve_phi_psi": _coupling_work,
}
COMPUTED_FIELDS = (
    ("_kernels.terminal_state_covariance", "path_steps"),
    ("_kernels.terminal_state_covariance", "flops"),
    ("linalg.solve_lyapunov", "kron_bytes"),
    ("linalg.solve_sylvester", "kron_bytes"),
    ("synthesis.solve_phi_psi", "system_side"),
)
MAX_FIELDS = ("system_side",)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: object
    request: object
    error: bool = False
    work: dict = field(default_factory=dict)


class Recorder:
    """Spans of the requests run while tracing is installed."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    def open(self, request):
        self.request = request
        self._stack = []

    def close(self):
        self.request = None

    def wrap(self, name, fn):
        counter = COMPUTED.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.request)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                span.work = counter(bound.arguments)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = CLOCK()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = CLOCK()
                self._stack.pop()

        return traced


class installed:
    """Context manager that swaps every traced function for its wrapper."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._swaps = []

    def __enter__(self):
        homes = {name: importlib.import_module(f"nesth2.{name}")
                 for name in TRACED}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "nesth2"
                                         or key.startswith("nesth2."))]
        for module_name, fns in TRACED.items():
            for fn_name in fns:
                original = getattr(homes[module_name], fn_name)
                wrapper = self.recorder.wrap(f"{module_name}.{fn_name}",
                                             original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._swaps.append((module, attr, original))
        return self.recorder

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._swaps):
            setattr(module, attr, original)
        self._swaps = []
        return False


def failing_stage(exc):
    """Innermost traced function on the traceback of `exc`, or None.

    Works from the traceback alone, so it needs no wrapper installed.
    """
    names = {(f"nesth2.{module}", fn) for module, fns in TRACED.items()
             for fn in fns}
    stage = None
    tb = exc.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        key = (frame.f_globals.get("__name__"), frame.f_code.co_name)
        if key in names:
            stage = f"{key[0][len('nesth2.'):]}.{key[1]}"
        tb = tb.tb_next
    return stage


def aggregate(spans, timed, everything):
    """Layer figures over the requests of one pass.

    `spans` is the recorder's whole list (parents are indices into it).
    `timed` holds the request ids whose calls, times and work counts are
    reported; `everything` also holds the stress requests, whose raised
    exceptions count into `errors`.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.errors"] = 0
    for name in TOTAL_TIME:
        out[f"{name}.total_s"] = 0.0
    for name, fld in COMPUTED_FIELDS:
        out[f"{name}.{fld}"] = 0
    for i, span in enumerate(spans):
        if span.request not in everything:
            continue
        if span.error:
            out[f"{span.name}.errors"] += 1
        if span.request not in timed:
            continue
        duration = span.end - span.start
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += duration - child_time[i]
        if span.name in TOTAL_TIME:
            out[f"{span.name}.total_s"] += duration
        for fld, value in span.work.items():
            key = f"{span.name}.{fld}"
            out[key] = max(out[key], value) if fld in MAX_FIELDS \
                else out[key] + value
    return out
