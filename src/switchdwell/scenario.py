"""Scenario files: a flat INI document describing system, signals and analyses.

Schema (``_KEYS`` declares each key once, with the parser of its value;
unknown sections, ``[DEFAULT]`` among them, and unknown keys are rejected):

    [system]            A (row-major), plus either per-mode [subsystem.<label>]
                        sections or a parameterized family: ``family`` gives the
                        entries of b with the token ``u`` substituted by each
                        value in ``u_values`` (one mode per value, labeled by it).
    [subsystem.<L>]     A, b  (explicit affine mode with label L)
    [signal]            kind, initial_mode, modes and optional t0, x0,
                        horizon, plus the keys of its kind (no others):
                          explicit (default)    times, optional period (the
                                                pattern on [t0, t0 + period)
                                                repeats)
                          from_dwell, periodic  T (scalar) or dwell (list)
                        Additional signals via [signal.<name>].
    [analysis]          eps plus booleans certify, dwell_table, trapping,
                        convergence, triangle, tube, plot_data; transitions
                        ("a:b c:d"), x0 (";"-separated start vectors),
                        boundary_points + start_region (boundary starts for the
                        primary signal), horizon, i_max, triangle_modes
                        ("u0 v u1"), tube_from, tube_to, tube_times,
                        tube_boundary_count, box (lo hi, certify box per axis).
    [numeric]           step (default 1e-3), seed (42), samples (10000).

``parse_scenario`` is the one place that decides whether a scenario is
complete and valid.  It applies the CLI overrides first, resolves every
default, and raises a ``SwitchDwellError`` (``ParseError`` for malformed
INI, ``ValidationError`` or a domain error otherwise) before any output file
is written; ``cli.analyse`` only executes what it returns.

Every number must be finite, and out-of-range values (a nonpositive step or
eps, a horizon not after t0, a negative seed, samples < 1, i_max < 1,
boundary_points of 1 or 2, tube_boundary_count < 3, an empty box or one
whose width hi - lo overflows, decreasing or negative tube_times, a start
whose dimension is not the system's, a step of at most 8 units in the last
place of a simulated signal's t0 or horizon, whichever is larger in
magnitude) are rejected.  Defaults are resolved per signal: its starts are
its own ``x0``, else ``[analysis] x0``, followed for the primary ``[signal]``
by the ``boundary_points`` starts on the boundary of ``start_region``'s
region; its horizon is its own, else ``[analysis] horizon``.  A periodic
pattern must switch; it unrolls by the rule in ``core.SwitchingSignal``.
Without ``transitions``, the dwell table takes the primary signal's switches
over one period, the wrap included.  Companion rules:

* simulate, trapping, convergence and plot_data need a signal, and every
  signal then needs starts and a horizon;
* convergence needs the primary [signal] with at least i_max switches
  before its horizon; dwell_table needs transitions;
* triangle needs triangle_modes of one certificate (alpha, beta, decay
  rate); tube needs tube_from, tube_to and tube_times;
* plot_data needs a 2-D system;
* boundary_points and start_region come together; mode labels are unique;
  mode labels and signal names hold no comma, double quote, slash,
  backslash, whitespace or control character and at most
  ``MAX_NAME_BYTES`` UTF-8 bytes, so that each is one CSV cell and part of
  one file name of at most 255 bytes.

Work budget, by arithmetic before anything is allocated: at most
``MAX_SWITCHES`` switches per simulated signal up to its horizon (its
periods times ``switches_per_period``), at most
``MAX_SAMPLES`` RK4 samples summed over all trajectories, and at most
``MAX_POINTS`` certificate samples per mode, boundary starts, or tube points
(``tube_boundary_count`` times the number of ``tube_times``).
"""

from __future__ import annotations

import configparser
import math
import re
import unicodedata
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .core import (
    Label,
    SwitchedSystem,
    SwitchingSignal,
    make_affine_subsystem,
    signal_from_dwell,
)
from .dwell import _shared_certificate
from .errors import ParseError, ValidationError
from .lyapunov import region_boundary_points
from .sim import _time_resolution

# The work budget.  The CLI holds no sample: each trajectory is checked in
# one windowed pass and its CSV, about 80 bytes per sample, is refilled and
# rendered in blocks of 1024 rows, so a run holds a few blocks whatever
# MAX_SAMPLES allows (a 200 001-sample demo CSV peaks at 0.8 MB,
# tracemalloc, numpy 2).  MAX_SAMPLES bounds the time and the bytes written,
# about 1.4 GB near it.  A switch costs a few kilobytes per trajectory: its
# plan's fill entries, state, V and report record (example1's cycle near
# MAX_SAMPLES peaks at 54 MB of resident memory).  A certificate check
# holds one block of 2048 samples and the violations it finds, whatever its
# size (example1 at MAX_POINTS samples peaks at 38 MB).  A tube point is
# about 150 bytes as JSON, so MAX_POINTS caps tube points near 0.2 GB.
MAX_SWITCHES = 10**6
MAX_SAMPLES = 10**7
MAX_POINTS = 10**6
# The longest file name a label or name makes, trajectory_<name>_<i>.csv
# with i < 10**7 (the sample budget allows fewer starts), is then 223 bytes.
MAX_NAME_BYTES = 200

_ANALYSIS_FLAGS = (
    "certify",
    "dwell_table",
    "trapping",
    "convergence",
    "triangle",
    "tube",
    "plot_data",
    "simulate",
)
_SIMULATING = ("simulate", "trapping", "convergence", "plot_data")
_KIND_KEYS = {  # the [signal] keys that only some kinds read
    "explicit": {"times", "period"},
    "from_dwell": {"T", "dwell"},
    "periodic": {"T", "dwell"},
}


@dataclass
class SignalSpec:
    """A signal with its resolved starts and horizon."""

    signal: SwitchingSignal
    x0: list[np.ndarray]
    horizon: Optional[float]


@dataclass
class Scenario:
    """Fully validated experiment description."""

    system: SwitchedSystem
    eps: float
    signals: dict[str, SignalSpec]
    analyses: dict[str, bool]
    transitions: Optional[list[tuple[Label, Label]]] = None
    i_max: int = 10
    triangle_modes: Optional[tuple[Label, Label, Label]] = None
    tube_from: Optional[Label] = None
    tube_to: Optional[Label] = None
    tube_times: Optional[list[float]] = None
    tube_boundary_count: int = 360
    box: tuple[float, float] = (-3.0, 3.0)
    step: float = 1e-3
    seed: int = 42
    samples: int = 10_000

    @property
    def simulates(self) -> bool:
        """Whether a requested analysis needs the signals' trajectories."""
        return any(self.analyses.get(flag) for flag in _SIMULATING)


def _parse_label(token: str) -> Label:
    if re.fullmatch(r"[+-]?\d+", token):
        return int(token)
    return token


def _name(token: str, where: str, what: str = "mode label") -> str:
    """``token``, which must be safe as a CSV cell and as part of a file name."""
    if not token:
        raise ValidationError(f"{where}: {what} is empty")
    if any(ch in ',"/\\' or ch.isspace() or unicodedata.category(ch) == "Cc" for ch in token):
        raise ValidationError(
            f"{where}: {what} {token!r} holds a comma, double quote, slash, backslash, "
            "whitespace or control character"
        )
    if (size := len(token.encode("utf-8", "surrogatepass"))) > MAX_NAME_BYTES:
        raise ValidationError(f"{where}: {what} of {size} UTF-8 bytes, over {MAX_NAME_BYTES}")
    return token


def _mode_label(token: str, where: str) -> Label:
    """The label of a new mode: an int if it reads as one, checked by ``_name``."""
    return _parse_label(_name(token, where))


# The parsers of ``_KEYS`` take (value, where, system): the text, the name
# that an error gives it, and the system its labels and starts must fit
# (None in [system] and [subsystem.<L>]).


def _number(
    value, where: str, system=None, kind: type = float, above=None, at_least=None, at_most=None
):
    """``kind(value)``, with a ``ValidationError`` naming ``where`` on failure.

    Floats must be finite; ``above`` and ``at_least`` are optional strict and
    inclusive lower bounds, ``at_most`` an inclusive upper bound.
    """
    try:
        x = kind(value)
    except ValueError:
        raise ValidationError(f"{where}: not a valid {kind.__name__}: {value!r}") from None
    if kind is float and not math.isfinite(x):
        raise ValidationError(f"{where}: must be finite, got {value!r}")
    if above is not None and not x > above:
        raise ValidationError(f"{where}: must be > {above}, got {value!r}")
    if at_least is not None and not x >= at_least:
        raise ValidationError(f"{where}: must be >= {at_least}, got {value!r}")
    if at_most is not None and not x <= at_most:
        raise ValidationError(f"{where}: must be <= {at_most}, got {value!r}")
    return x


def _floats(value: str, where: str, system=None) -> list[float]:
    return [_number(tok, where) for tok in value.split()]


def _starts(value: str, where: str, system: SwitchedSystem) -> list[np.ndarray]:
    """The ``;``-separated start vectors of ``value``, each of the system's dimension."""
    starts = [np.array(_floats(part, where)) for part in value.split(";")]
    for x in starts:
        if x.shape != (system.dimension,):
            raise ValidationError(
                f"{where}: a start of dimension {x.size} for a system of "
                f"dimension {system.dimension}"
            )
    return starts


def _label(value: str, where: str, system: SwitchedSystem) -> Label:
    label = _parse_label(value.strip())
    if label not in system:
        raise ValidationError(f"{where}: unknown mode label {label!r}")
    return label


def _labels(value: str, where: str, system: SwitchedSystem) -> list[Label]:
    return [_label(tok, where, system) for tok in value.split()]


def _mode_labels(value: str, where: str, system=None) -> list[Label]:
    return [_mode_label(tok, where) for tok in value.split()]


def _matrix(value: str, where: str, system=None) -> np.ndarray:
    """Square matrix from its row-major entries."""
    vals = _floats(value, where)
    n = int(round(len(vals) ** 0.5))
    if n == 0 or n * n != len(vals):
        raise ValidationError(f"{where} must be a square matrix (row-major)")
    return np.array(vals).reshape(n, n)


def _bool(value: str, where: str, system=None) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValidationError(f"{where}: expected a boolean, got {value!r}")


def _kind(value: str, where: str, system=None) -> str:
    kind = value.strip()
    if kind not in _KIND_KEYS:
        raise ValidationError(f"{where}: unknown signal kind {kind!r}")
    return kind


def _transitions(value: str, where: str, system: SwitchedSystem) -> list[tuple[Label, Label]]:
    pairs = []
    for tok in value.split():
        if ":" not in tok:
            raise ValidationError(f"{where}: expected from:to, got {tok!r}")
        pairs.append(tuple(_label(p, where, system) for p in tok.split(":", 1)))
    return pairs


def _triangle_modes(value: str, where: str, system: SwitchedSystem) -> tuple[Label, ...]:
    if len(value.split()) != 3:
        raise ValidationError(f"{where} needs exactly three labels")
    return tuple(_labels(value, where, system))


def _tube_times(value: str, where: str, system=None) -> list[float]:
    times = [_number(tok, where, at_least=0) for tok in value.split()]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError(f"{where}: must be increasing")
    return times


def _box(value: str, where: str, system=None) -> tuple[float, float]:
    box = _floats(value, where)
    if len(box) != 2:
        raise ValidationError(f"{where} needs exactly two numbers (lo hi)")
    if not 0 < box[1] - box[0] < math.inf:
        raise ValidationError(f"{where}: lo must be < hi with a finite hi - lo, got {value!r}")
    return box[0], box[1]


def _boundary_points(value: str, where: str, system=None) -> int:
    count = _number(value, where, kind=int, at_least=0, at_most=MAX_POINTS)
    if 0 < count < 3:
        raise ValidationError(f"{where}: must be 0 or >= 3, got {count}")
    return count


# Every key of every section with its parser.  The [analysis] keys other
# than the flags, x0, horizon, boundary_points and start_region, and the
# [numeric] keys, are the Scenario fields of the same name.
_KEYS = {
    "system": {
        "A": _matrix,
        "family": lambda value, where, system: value.split(),
        "u_values": _mode_labels,
    },
    "subsystem": {"A": _matrix, "b": _floats},
    "signal": {
        "kind": _kind,
        "initial_mode": _label,
        "modes": _labels,
        "times": _floats,
        "period": _number,
        "T": _number,
        "dwell": _floats,
        "t0": _number,
        "x0": _starts,
        "horizon": _number,
    },
    "analysis": {
        **dict.fromkeys(_ANALYSIS_FLAGS, _bool),
        "eps": partial(_number, above=0),
        "transitions": _transitions,
        "x0": _starts,
        "boundary_points": _boundary_points,
        "start_region": _label,
        "horizon": partial(_number, above=0),
        "i_max": partial(_number, kind=int, at_least=1),
        "triangle_modes": _triangle_modes,
        "tube_from": _label,
        "tube_to": _label,
        "tube_times": _tube_times,
        "tube_boundary_count": partial(_number, kind=int, at_least=3),
        "box": _box,
    },
    "numeric": {
        "step": partial(_number, above=0),
        "seed": partial(_number, kind=int, at_least=0),
        "samples": partial(_number, kind=int, at_least=1, at_most=MAX_POINTS),
    },
}


def _read(sec, system: Optional[SwitchedSystem], **overrides) -> dict:
    """The parsed value of each key that ``sec`` sets, by its section's ``_KEYS``.

    An override ``key=(flag, value)`` whose value is not None is parsed
    under ``flag`` in place of the document's value, which is not parsed.
    """
    parsers = _KEYS[sec.name.split(".")[0]]
    texts = {}
    for key, value in sec.items():
        if key not in parsers:
            raise ValidationError(f"unknown key {key!r} in section [{sec.name}]")
        texts[key] = value, f"[{sec.name}] {key}"
    for key, (flag, value) in overrides.items():
        if value is not None:
            texts[key] = value, flag
    return {key: parsers[key](value, where, system) for key, (value, where) in texts.items()}


def _signal_spec(sec, system: SwitchedSystem, x0, horizon) -> SignalSpec:
    """The signal of ``sec``; ``x0`` and ``horizon`` apply when it sets none."""
    name = sec.name
    keys = _read(sec, system)
    kind = keys.get("kind", "explicit")
    for key in keys:
        if key not in _KIND_KEYS[kind] and any(key in only for only in _KIND_KEYS.values()):
            raise ValidationError(f"[{name}]: {key} does not apply to kind = {kind}")
    if "initial_mode" not in keys:
        raise ValidationError(f"[{name}]: initial_mode is required")
    t0, initial, modes = keys.get("t0", 0.0), keys["initial_mode"], keys.get("modes", [])
    try:
        if kind == "explicit":
            times = keys.get("times", [])
            if len(times) != len(modes):
                raise ValidationError(f"[{name}]: times and modes must have equal length")
            segments = tuple(zip(times, modes))
            signal = SwitchingSignal(t0, initial, segments, keys.get("period"))
        else:
            if "T" in keys and "dwell" in keys:
                raise ValidationError(f"[{name}]: set T or dwell, not both")
            dwell = keys.get("T", keys.get("dwell"))
            if dwell is None and modes:
                raise ValidationError(f"[{name}]: T or dwell is required")
            signal = signal_from_dwell(initial, modes, dwell, t0=t0, periodic=kind == "periodic")
    except ValueError as exc:  # the signal constructors' domain checks
        raise ValidationError(f"[{name}]: {exc}") from None
    horizon = keys.get("horizon", horizon)
    if horizon is not None and not horizon > t0:
        raise ValidationError(f"[{name}]: horizon {horizon!r} must exceed t0 = {t0!r}")
    return SignalSpec(signal=signal, x0=keys.get("x0", list(x0)), horizon=horizon)


def parse_scenario(text: str, *, step=None, eps=None, seed=None, analyses=None) -> Scenario:
    """Parse, resolve and validate a scenario document.

    ``step``, ``eps`` and ``seed`` override the document's values and
    ``analyses`` replaces its analysis flags (the CLI's options and
    subcommands); they are applied before any check.  The result is
    complete: every default is resolved and every companion rule and the
    work budget hold.
    """
    # no header names the section "\n", so [DEFAULT] is a section of its own,
    # rejected as unknown, rather than keys copied into every other section
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",), default_section="\n")
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    for name in ("system", "analysis"):
        if name not in cp:
            raise ValidationError(f"missing [{name}] section")
    if "numeric" not in cp:
        cp.add_section("numeric")

    modes = []  # (A, b, label) per mode
    sys_keys = _read(cp["system"], None)
    shared_A = sys_keys.get("A")
    if "family" in sys_keys or "u_values" in sys_keys:
        if shared_A is None or "family" not in sys_keys or "u_values" not in sys_keys:
            raise ValidationError("[system] family needs A, family and u_values together")
        tokens = sys_keys["family"]
        if len(tokens) != shared_A.shape[0]:
            raise ValidationError("[system] family length must match the dimension of A")
        for u in sys_keys["u_values"]:
            b = [_number(u if tok == "u" else tok, "[system] family") for tok in tokens]
            modes.append((shared_A, b, u))
    for section in cp.sections():
        if section.startswith("subsystem."):
            sub = _read(cp[section], None)
            A = sub.get("A", shared_A)
            if A is None:
                raise ValidationError(f"[{section}]: A is required")
            if "b" not in sub:
                raise ValidationError(f"[{section}]: b is required")
            modes.append((A, sub["b"], _mode_label(section.split(".", 1)[1], f"[{section}]")))
        elif not section.startswith("signal.") and section not in (
            "system",
            "signal",
            "analysis",
            "numeric",
        ):
            raise ValidationError(f"unknown section [{section}]")
    try:
        system = SwitchedSystem(subsystems=tuple(make_affine_subsystem(*m) for m in modes))
    except ValueError as exc:  # no modes, duplicate labels, an ill-posed mode
        raise ValidationError(f"[system]: {exc}") from None

    an = _read(cp["analysis"], system, eps=("--eps", eps))
    num = _read(cp["numeric"], system, step=("--step", step), seed=("--seed", seed))
    flags = {flag: an.pop(flag) for flag in _ANALYSIS_FLAGS if flag in an}
    if analyses is not None:
        flags = dict(analyses)
    if not any(flags.values()):
        raise ValidationError("[analysis]: at least one analysis must be requested")
    if "eps" not in an:
        raise ValidationError("[analysis]: eps is required")
    x0, horizon = an.pop("x0", []), an.pop("horizon", None)
    region, count = an.pop("start_region", None), an.pop("boundary_points", None)
    if (region is None) != (count is None):
        raise ValidationError("[analysis]: boundary_points and start_region go together")
    scenario = Scenario(system=system, signals={}, analyses=flags, **an, **num)

    if "signal.signal" in cp:
        raise ValidationError("[signal.signal]: the name 'signal' belongs to the primary [signal]")
    names = (["signal"] if "signal" in cp else []) + [
        s for s in cp.sections() if s.startswith("signal.")
    ]
    for section in names:
        name = _name(section.removeprefix("signal."), f"[{section}]", "signal name")
        scenario.signals[name] = _signal_spec(cp[section], system, x0, horizon)
    primary = scenario.signals.get("signal")
    if primary is not None:
        if count:
            primary.x0 += list(region_boundary_points(system[region], scenario.eps, count))
        if scenario.transitions is None:
            sig = primary.signal
            switches = sig.first_switches(sig.switches_per_period)
            scenario.transitions = [(a, b) for _, a, b in switches]

    if scenario.simulates:
        if not scenario.signals:
            raise ValidationError("simulation requested but no signal defined")
        samples = 0.0
        for name, spec in scenario.signals.items():
            if not spec.x0:
                raise ValidationError(f"signal {name!r}: no initial conditions")
            if spec.horizon is None:
                raise ValidationError(f"signal {name!r}: no horizon")
            sig = spec.signal
            periods = 1 if sig.period is None else (spec.horizon - sig.t0) / sig.period + 1
            switches = periods * sig.switches_per_period
            if not switches <= MAX_SWITCHES:  # inf too: an overflowing span
                raise ValidationError(
                    f"signal {name!r}: {switches:.3g} switches up to its horizon, "
                    f"over the budget of {MAX_SWITCHES}"
                )
            # each interval's grid has at most one sample beyond span / step
            span = spec.horizon - spec.signal.t0
            samples += len(spec.x0) * (span / scenario.step + switches + 2)
        if not samples <= MAX_SAMPLES:
            raise ValidationError(
                f"{samples:.3g} RK4 samples over all trajectories, "
                f"over the budget of {MAX_SAMPLES}"
            )
        for name, spec in scenario.signals.items():
            if not scenario.step > (finest := _time_resolution(spec.signal.t0, spec.horizon)):
                raise ValidationError(f"signal {name!r}: times this large need step > {finest:.3g}")
    if flags.get("convergence"):
        if primary is None:
            raise ValidationError("convergence needs the primary [signal]")
        # bounded: the budget above has capped the switches
        switches = len(primary.signal.switches_until(primary.horizon))
        if switches < scenario.i_max:
            raise ValidationError(
                f"convergence needs i_max = {scenario.i_max} switches of the primary "
                f"[signal] before its horizon, it makes {switches}"
            )
    if flags.get("dwell_table") and not scenario.transitions:
        raise ValidationError("dwell_table needs transitions (explicit or via a signal)")
    if flags.get("triangle"):
        if scenario.triangle_modes is None:
            raise ValidationError("triangle analysis needs triangle_modes")
        _shared_certificate([system[m] for m in scenario.triangle_modes])
    if flags.get("tube"):
        if scenario.tube_from is None or scenario.tube_to is None or not scenario.tube_times:
            raise ValidationError("tube analysis needs tube_from, tube_to and tube_times")
        points = len(scenario.tube_times) * scenario.tube_boundary_count
        if points > MAX_POINTS:
            raise ValidationError(f"{points} tube points, over the budget of {MAX_POINTS}")
    if flags.get("plot_data") and system.dimension != 2:
        raise ValidationError("plot data emission needs a 2-D system")
    return scenario
