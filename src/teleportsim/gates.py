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
import functools
import math
import operator
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .tensor_core import num_qubits

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

GENERATOR_ATOL = 1e-12
# two schedule times closer than this are the same time
SCHEDULE_TIME_ATOL = 1e-9


class ScheduleError(ValueError):
    """Malformed schedule transcription file."""


# each gate's (num, den, M): its generator at a PARAM value over DUR is
# -(PARAM * num / (den * DUR)) * M, and M's size fixes its site count
_GATES = {
    # XX(PARAM) = exp[(i PARAM / 2) X (x) X]
    "XX": (1, 2, np.kron(X, X)),
    # R_Z(PARAM) = exp[(i PARAM / 2) Z]
    "RZ": (1, 2, Z),
    # CNOT = exp[(i pi / 4) (1 - Z) (x) (1 - X)] at PARAM 1; control first
    "CNOT": (np.pi, 4, np.kron(I2 - Z, I2 - X)),
    # HAD = exp[(i pi / (2 sqrt 2)) (X + Z)] = i * H_textbook at PARAM 1
    "HAD": (np.pi, 2 * np.sqrt(2), X + Z),
    # exp[PARAM * ln SWAP], with ln SWAP = (i pi / 2) M
    "PSWAP": (np.pi, 2, np.array([[0, 0, 0, 0], [0, 1, -1, 0],
                                  [0, -1, 1, 0], [0, 0, 0, 0]], dtype=float)),
}


def gate_generator(name: str, value: float, duration: float) -> np.ndarray:
    """Hermitian generator H of the named gate at PARAM value, applied over
    the duration: exp(-i H duration) is the gate."""
    num, den, m = _GATES[name]
    return -(value * num / (den * duration)) * m


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
        arity = num_qubits(_GATES[name][2])
        if len(sites) != arity:
            raise ScheduleError(
                f"line {lineno}: {name} takes {arity} site(s), got {sites}")
        start = _finite(tok[5], "START", lineno)
        duration = _finite(tok[7], "DUR", lineno)
        if duration <= 0:
            raise ScheduleError(f"line {lineno}: DUR must be positive, got {tok[7]!r}")
        entries.append(ScheduleEntry(name, sites, start, duration, tok[9]))
    missing = {"t1", "t2", "t3"} - set(times)
    if missing:
        raise ScheduleError(f"missing TIME directives: {sorted(missing)}")
    return ParsedSchedule(tuple(entries), *(times[t][1] for t in ("t1", "t2", "t3")))


@functools.cache
def load_schedule(kind: str) -> ParsedSchedule:
    """Load a packaged schedule file ('scrambling' or 'swap'), once per kind."""
    path = resources.files(__package__) / "schedules" / f"{kind}.sched"
    return parse_schedule_text(path.read_text())


def entry_segment(entry: ScheduleEntry, alpha: float) -> GateSegment:
    """Instantiate one schedule entry at a given alpha."""
    if entry.name not in _GATES:
        raise ScheduleError(f"unknown gate {entry.name!r} on sites {entry.sites}")
    generator = gate_generator(entry.name, eval_param(entry.param, alpha),
                               entry.duration)
    return GateSegment(generator, entry.sites, entry.start, entry.duration)
