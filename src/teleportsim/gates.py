"""Hermitian gate generators and the timed-schedule format.

All gates are defined by their exponential forms exp(-i H tau) (including
any global phases those produce); density-matrix evolution is insensitive to
the phases. hbar = 1 and the gate time tau = 1 are the units throughout.

Schedule transcription files are plain text, one gate per line:

    GATE <name> SITES <i[,j]> START <t> DUR <tau> PARAM <expr(alpha)>

plus ``TIME t1|t2|t3 <t>`` lines fixing the protocol checkpoints. PARAM is
an arithmetic expression in ``alpha`` and ``pi`` (numbers, + - * / and
parentheses, nothing else); its meaning is the rotation angle for XX/RZ,
the signed exponent for PSWAP, and a scale factor (normally 1) for
CNOT/HAD.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from importlib import resources

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# ln SWAP = (i pi / 2) * LN_SWAP_CORE
LN_SWAP_CORE = np.array(
    [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=float
)

GENERATOR_ATOL = 1e-12
# two schedule times closer than this are the same time
SCHEDULE_TIME_ATOL = 1e-9


class ScheduleError(ValueError):
    """Malformed schedule transcription file."""


def xx_generator(phi: float, tau: float = 1.0) -> np.ndarray:
    """Hermitian H with exp(-i H tau) = XX(phi) = exp[(i phi / 2) X (x) X]."""
    return -(phi / (2 * tau)) * np.kron(X, X)


def rz_generator(phi: float, tau: float = 1.0) -> np.ndarray:
    """Generator of R_Z(phi) = exp[(i phi / 2) Z] over time tau."""
    return -(phi / (2 * tau)) * Z


def cnot_generator(tau: float = 1.0, scale: float = 1.0) -> np.ndarray:
    """Generator of CNOT = exp[(i pi / 4) (1 - Z) (x) (1 - X)]; control first."""
    return -(scale * np.pi / (4 * tau)) * np.kron(I2 - Z, I2 - X)


def hadamard_generator(tau: float = 1.0, scale: float = 1.0) -> np.ndarray:
    """Generator of HAD = exp[(i pi / (2 sqrt 2)) (X + Z)] = i * H_textbook."""
    return -(scale * np.pi / (2 * np.sqrt(2) * tau)) * (X + Z)


def param_swap_generator(exponent: float, tau: float = 4.0) -> np.ndarray:
    """Generator of exp[exponent * ln SWAP] applied over time tau."""
    return -(exponent * np.pi / (2 * tau)) * LN_SWAP_CORE


@dataclass
class GateSegment:
    """A timed Hermitian generator acting on listed sites over a duration.

    The segment's total unitary is exp(-i * generator * duration).
    """

    generator: np.ndarray
    sites: tuple[int, ...]
    start_time: float
    duration: float

    def __post_init__(self):
        self.generator = np.asarray(self.generator, dtype=complex)
        self.sites = tuple(int(s) for s in self.sites)
        dev = np.max(np.abs(self.generator - self.generator.conj().T))
        # written so that a NaN deviation, from a non-finite entry, fails it
        if not dev <= GENERATOR_ATOL:
            raise ValueError(f"generator of the segment on sites {self.sites} "
                             f"is not Hermitian (deviation {dev:.3e})")
        # written so that a NaN duration fails it
        if not self.duration > 0:
            raise ValueError(f"segment duration must be positive, got "
                             f"{self.duration}")
        if self.generator.shape != (2 ** len(self.sites),) * 2:
            raise ValueError(
                f"generator shape {self.generator.shape} does not match "
                f"{len(self.sites)} site(s)"
            )

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def step_unitary(self, dt: float) -> np.ndarray:
        """exp(-i * generator * dt) = V diag(e^{-i w dt}) V^dagger."""
        w, v = np.linalg.eigh(self.generator)
        return (v * np.exp(-1j * w * dt)) @ v.conj().T

    def active_at(self, t: float) -> bool:
        return (self.start_time - SCHEDULE_TIME_ATOL <= t
                < self.end_time - SCHEDULE_TIME_ATOL)


_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}


def eval_param(expr: str, alpha: float) -> float:
    """Evaluate a PARAM expression: numbers, alpha, pi, unary + and -,
    binary + - * / and parentheses."""
    names = {"alpha": alpha, "pi": math.pi}

    def walk(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return node.value
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            return _UNARY_OPS[type(node.op)](walk(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](walk(node.left), walk(node.right))
        raise ScheduleError(f"PARAM expression {expr!r} may only use numbers, "
                            f"alpha, pi, + - * / and parentheses")

    try:
        value = float(walk(ast.parse(expr.strip().lower(), mode="eval").body))
    except ScheduleError:
        raise
    except SyntaxError as exc:
        raise ScheduleError(f"cannot parse PARAM expression {expr!r}: {exc.msg}")
    except ZeroDivisionError:
        raise ScheduleError(f"division by zero in PARAM expression {expr!r}")
    except OverflowError:  # an integer too large for a float
        value = math.inf
    except (RecursionError, ValueError, MemoryError):
        raise ScheduleError(f"PARAM expression {expr!r} is nested too deeply "
                            f"or malformed")
    if not math.isfinite(value):
        raise ScheduleError(f"PARAM expression {expr!r} is not a finite number")
    return value


@dataclass(frozen=True)
class ScheduleEntry:
    """One parsed line of a schedule transcription file."""

    name: str
    sites: tuple[int, ...]
    start: float
    duration: float
    param: str


@dataclass(frozen=True)
class ParsedSchedule:
    entries: tuple[ScheduleEntry, ...]
    t1: float
    t2: float
    t3: float


# each gate's site count, and its generator from the PARAM value and DUR
_GATES = {
    "XX": (2, xx_generator),
    "RZ": (1, rz_generator),
    "CNOT": (2, lambda scale, tau: cnot_generator(tau, scale)),
    "HAD": (1, lambda scale, tau: hadamard_generator(tau, scale)),
    "PSWAP": (2, param_swap_generator),
}


def _finite(token: str, field: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ScheduleError(f"line {lineno}: {field} must be a finite number, "
                            f"got {token!r}")
    return value


def parse_schedule_text(text: str) -> ParsedSchedule:
    """Parse a schedule transcription file; a malformed line raises
    ScheduleError naming it."""
    entries = []
    times: dict[str, tuple[int, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "TIME":
            if len(tok) != 3 or tok[1] not in ("t1", "t2", "t3"):
                raise ScheduleError(f"line {lineno}: malformed TIME directive")
            if tok[1] in times:
                raise ScheduleError(f"line {lineno}: TIME {tok[1]} repeats line "
                                    f"{times[tok[1]][0]}")
            times[tok[1]] = (lineno, _finite(tok[2], f"TIME {tok[1]}", lineno))
            continue
        if tok[0] != "GATE":
            raise ScheduleError(f"line {lineno}: expected GATE or TIME, got {tok[0]!r}")
        if (len(tok) != 10 or tok[2] != "SITES" or tok[4] != "START"
                or tok[6] != "DUR" or tok[8] != "PARAM"):
            raise ScheduleError(f"line {lineno}: malformed GATE line")
        name = tok[1]
        if name not in _GATES:
            raise ScheduleError(f"line {lineno}: unknown gate {name!r}")
        try:
            sites = tuple(int(s) for s in tok[3].split(","))
        except ValueError:
            sites = ()
        if not sites or min(sites) < 1 or len(set(sites)) != len(sites):
            raise ScheduleError(f"line {lineno}: SITES must be distinct positive "
                                f"integers, got {tok[3]!r}")
        if len(sites) != _GATES[name][0]:
            raise ScheduleError(
                f"line {lineno}: {name} takes {_GATES[name][0]} site(s), "
                f"got {sites}"
            )
        start = _finite(tok[5], "START", lineno)
        duration = _finite(tok[7], "DUR", lineno)
        if duration <= 0:
            raise ScheduleError(f"line {lineno}: DUR must be positive, got {tok[7]!r}")
        entries.append(ScheduleEntry(name, sites, start, duration, tok[9]))
    missing = {"t1", "t2", "t3"} - set(times)
    if missing:
        raise ScheduleError(f"missing TIME directives: {sorted(missing)}")
    return ParsedSchedule(tuple(entries), *(times[t][1] for t in ("t1", "t2", "t3")))


def load_schedule(kind: str) -> ParsedSchedule:
    """Load a packaged schedule transcription file ('scrambling' or 'swap')."""
    path = resources.files(__package__) / "schedules" / f"{kind}.sched"
    return parse_schedule_text(path.read_text())


def entry_segment(entry: ScheduleEntry, alpha: float) -> GateSegment:
    """Instantiate one schedule entry at a given alpha."""
    if entry.name not in _GATES:
        raise ScheduleError(f"unknown gate {entry.name!r} on sites {entry.sites}")
    generator = _GATES[entry.name][1]
    return GateSegment(generator(eval_param(entry.param, alpha), entry.duration),
                       entry.sites, entry.start, entry.duration)
