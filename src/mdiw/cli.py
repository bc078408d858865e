"""Batch front-end: scenario configs in, CSV/JSON artifacts out.

Subcommands::

    mdiw decompose -c cfg.json [-o out.json]
    mdiw simulate  -c cfg.json [-o table.csv] [--summary out.json] [--full]
    mdiw scan      -c cfg.json --from 0 --to 1 --steps 101 [-o curve.csv]
    mdiw attack    -c cfg.json [-o report.json]
    mdiw verify    [-o verdicts.json]

Exit codes: 0 success, 1 assertion/bound failure, 2 configuration error.
The environment variable ``MDIW_SEED`` overrides the config seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields, replace

from . import serialize
from .states import FAMILIES, DensityMatrix, InputEnsemble, family_state, named_ensemble
from .witness import (
    Decomposition,
    Witness,
    decompose,
    decomposition_to_dict,
    named_witness,
    tabulated_beta,
    witness_value,
)
from .game import (
    apply_uniform_loss,
    bell_strategy,
    check_efficiencies,
    fast_entangled_table,
    mdi_value,
    simulate_entangled,
    table_to_csv,
    violation_scan,
)
from .attack import AttackConfig, BOUND_TOL, attack, biseparable_attack, expected_game_value, report_to_dict
from .verify import DEFAULT_SEED, run_all, verdict_to_dict


class ConfigError(Exception):
    """Scenario configuration that cannot be resolved."""


_ATTACK_DEFAULTS = {
    "kind": "separable",
    "expectation": "bounded",
    **{f.name: f.default for f in fields(AttackConfig) if f.name != "seed"},
}

_FAMILY_WITNESS = {"werner": "singlet", "noisy_ghz": "ghz"}


# The type a config keeps each key that holds a JSON container as: tuple for an array, dict for an object.
_CONTAINERS = {"ensembles": tuple, "state": dict, "loss": tuple, "attack": dict}


@contextlib.contextmanager
def _config_errors(what: str = ""):
    """Raise a KeyError, TypeError or ValueError that config data causes as a ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what}{exc}") from None


def _dims(value, what: str) -> tuple[int, ...]:
    """Subsystem dimensions given in a config: a JSON array of integers."""
    if not isinstance(value, list) or any(type(d) is not int for d in value):
        raise ConfigError(f"{what} dims must be a JSON array of integers, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Plain-data scenario description, checked for shape and type on construction.

    ``witness`` is a name or an explicit matrix spec, ``ensembles`` one
    name or spec per party, ``state`` a named family with parameter ``v``
    or an explicit matrix, given as rows of [re, im] number pairs.
    :meth:`resolve` builds the objects it names.
    """

    parties: int
    witness: object
    ensembles: tuple
    state: dict
    decomposition: str = "paper"
    loss: tuple | None = None
    seed: int = 0
    attack: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.parties, int) or isinstance(self.parties, bool) or self.parties not in (2, 3):
            raise ConfigError(f"parties must be the integer 2 or 3, got {self.parties!r}")
        if len(self.ensembles) != self.parties:
            raise ConfigError("one ensemble per party required")
        if self.decomposition not in ("paper", "solve"):
            raise ConfigError(f"decomposition source must be 'paper' or 'solve', got {self.decomposition!r}")
        loss = (1.0,) * self.parties if self.loss is None else self.loss
        if len(loss) != self.parties:
            raise ConfigError("one loss efficiency per party required")
        bad_loss = f"loss efficiencies must be numbers in (0, 1], got {list(loss)}"
        if not all(map(serialize.is_number, loss)):
            raise ConfigError(bad_loss)
        try:
            loss = check_efficiencies(loss, self.parties)
        except ValueError:
            raise ConfigError(bad_loss) from None
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        att = dict(_ATTACK_DEFAULTS)
        att.update(self.attack)
        unknown = set(att) - set(_ATTACK_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown attack config keys: {sorted(unknown)}")
        if att["kind"] not in ("separable", "biseparable"):
            raise ConfigError(f"attack kind must be 'separable' or 'biseparable', got {att['kind']!r}")
        if att["kind"] == "biseparable" and self.parties != 3:
            raise ConfigError(f"attack kind 'biseparable' needs 3 parties, got {self.parties}")
        if att["expectation"] not in ("bounded", "violable"):
            raise ConfigError("attack expectation must be 'bounded' or 'violable'")
        if "family" in self.state:
            if self.state["family"] not in FAMILIES:
                raise ConfigError(f"unknown state family {self.state['family']!r}")
            v = self.state.get("v")
            if not serialize.is_number(v) or not 0.0 <= v <= 1.0:
                raise ConfigError(f"family parameter v must be a number in [0, 1], got {v!r}")
        elif "matrix" not in self.state:
            raise ConfigError("state must give a 'family' or an explicit 'matrix'")
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "attack", att)
        self.attack_config  # a bad search knob is a bad config before any command runs

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        required = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
        unknown = set(data) - set(required)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, kind in _CONTAINERS.items():
            if key in data and not isinstance(data[key], list if kind is tuple else dict):
                raise ConfigError(f"{key} must be a JSON {'array' if kind is tuple else 'object'}, got {data[key]!r}")
        missing = [key for key, needed in required.items() if needed and key not in data]
        if missing:
            raise ConfigError(f"missing config key: {missing[0]}")
        with _config_errors("bad config: "):
            return cls(**{key: _CONTAINERS[key](v) if key in _CONTAINERS else v for key, v in data.items()})

    # -- resolution to domain objects -------------------------------------

    def resolve(self) -> "Scenario":
        """Build every object the config names, once, and cross-check their dims."""
        ensembles = tuple(map(self._ensemble, ("A", "B", "C"), self.ensembles))
        dims = tuple(e.dim for e in ensembles)
        w = self._witness(dims)
        if w.dims != dims:
            raise ConfigError(f"witness dims {w.dims} do not match ensemble dims {dims}")
        if self.decomposition == "solve":
            dec = decompose(w, ensembles)
        else:
            with _config_errors():
                dec = tabulated_beta(self.witness if isinstance(self.witness, str) else None, w, ensembles)
        family = self.state.get("family")
        v = None if family is None else float(self.state["v"])
        rho = self._explicit_state() if family is None else family_state(family, v)
        if rho.dims != dims:
            raise ConfigError(f"state dims {rho.dims} do not match ensemble dims {dims}")
        return Scenario(self, dec, w, rho, family, v)

    def resolve_decomposition(self) -> Decomposition:
        # kept for the cli_scan set-up of perfbench/workloads.py
        return self.resolve().decomposition

    def _ensemble(self, party: str, spec) -> InputEnsemble:
        if isinstance(spec, str):
            with _config_errors():
                return named_ensemble(spec, party)
        if not isinstance(spec, dict):
            raise ConfigError(f"ensemble spec must be a name or object, got {type(spec).__name__}")
        if not isinstance(spec.get("name", ""), str):
            raise ConfigError(f"ensemble name for party {party} must be a string")
        with _config_errors(f"bad ensemble spec for party {party}: "):
            states = tuple(DensityMatrix(serialize.matrix_from_json(m), (len(m),)) for m in spec["states"])
            return InputEnsemble(party, tuple(spec["labels"]), states, name=spec.get("name", "custom"))

    def _witness(self, dims: tuple[int, ...]) -> Witness:
        """The witness; an explicit matrix without ``dims`` takes the ensemble dims."""
        if isinstance(self.witness, str):
            with _config_errors():
                return named_witness(self.witness)
        if not isinstance(self.witness, dict):
            raise ConfigError("witness must be a name or an explicit matrix object")
        with _config_errors("bad witness spec: "):
            m = serialize.matrix_from_json(self.witness["matrix"])
            w_dims = _dims(self.witness["dims"], "witness") if "dims" in self.witness else dims
            return Witness(m, w_dims, self.witness.get("kind", "bipartite-separability"))

    def _explicit_state(self) -> DensityMatrix:
        with _config_errors("bad state spec: "):
            m = serialize.matrix_from_json(self.state["matrix"])
            dims = _dims(self.state["dims"], "state") if "dims" in self.state else (2,) * self.parties
            return DensityMatrix(m, dims)

    @functools.cached_property
    def attack_config(self) -> AttackConfig:
        """The search knobs at the config seed; ``MDIW_SEED`` is applied by ``attack`` alone."""
        knobs = {k: v for k, v in self.attack.items() if k not in ("kind", "expectation")}
        with _config_errors("bad attack config: "):
            return AttackConfig(seed=self.seed, **knobs)


@dataclass(frozen=True)
class Scenario:
    """A config resolved to objects, once; ``family``/``v`` are None for an explicit state."""

    config: ScenarioConfig
    decomposition: Decomposition
    witness: Witness
    state: DensityMatrix
    family: str | None
    v: float | None


def _effective_seed(config_seed: int) -> int:
    env = os.environ.get("MDIW_SEED")
    if env is None:
        return config_seed
    try:
        seed = int(env)
    except ValueError:
        raise ConfigError(f"MDIW_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ConfigError("MDIW_SEED must be nonnegative")
    return seed


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        json.dumps(data, ensure_ascii=False).encode("utf-8")  # a lone surrogate cannot be written out
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, lone surrogate, or nested too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return ScenarioConfig.from_dict(data)


def _check_outputs(*paths) -> None:
    """Reject an output path that names a directory or lies in no directory, and two output paths
    that name one regular file, before any work is done.

    Each path is checked as the OS resolves it, component by component, so
    ``missing/../x`` lies in no directory, and ``./x`` or a symlink to x names x.
    """
    paths = [p for p in paths if p is not None]
    for path in paths:
        if not os.path.basename(path) or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {path}: not a file in an existing directory")
    same = len(paths) == 2 and os.path.realpath(paths[0]) == os.path.realpath(paths[1])
    if same and (os.path.isfile(paths[0]) or not os.path.exists(paths[0])):  # not /dev/null, say
        raise ConfigError(f"cannot write {paths[0]} and {paths[1]}: both name the file {os.path.realpath(paths[0])}")


def _write_all(artifacts: list[tuple[str, str | None]]) -> None:
    """Write every ``(text, path)`` artifact: all files or none, then each stdout text (path None).

    Each file goes to a new temporary file beside its target, through any
    symlink, and the targets are replaced once every one is written.  A
    target keeps its mode, a new one gets the mode ``open(path, "w")`` gives,
    and one that is not a regular file (``/dev/null``) is written in place.
    """
    staged = []  # (path, target, its temporary file or None to write in place, text)
    try:
        for text, path in (artifact for artifact in artifacts if artifact[1] is not None):
            mode = os.stat(path).st_mode if os.path.exists(path) else None
            if mode is not None and not stat.S_ISREG(mode):
                staged.append((path, path, None, text))
                continue
            target = os.path.realpath(path) if os.path.islink(path) else path
            tmp = os.path.join(os.path.dirname(target), f".mdiw-{os.urandom(6).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((path, target, tmp, text))
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                fh.write(text)
        for path, target, tmp, text in staged:
            if tmp is not None:
                os.replace(tmp, target)
                continue
            with open(target, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for _, _, tmp, _ in staged:
            if tmp is not None and os.path.lexists(tmp):
                os.remove(tmp)
    sys.stdout.write("".join(text for text, path in artifacts if path is None))


def cmd_decompose(scenario: Scenario, args: argparse.Namespace) -> tuple[int, list]:
    """The decomposition JSON; exit 0 iff it is exact."""
    dec = scenario.decomposition
    return 0 if dec.exact else 1, [(serialize.dumps(decomposition_to_dict(dec)), args.out)]


def _closed_form(scenario: Scenario):
    """The closed-form game value of the scenario's family as a function of v, if it has one."""
    family, config = scenario.family, scenario.config
    if family is None or not scenario.decomposition.exact or _FAMILY_WITNESS[family] != config.witness:
        return None
    return lambda v: expected_game_value(family, v) * math.prod(config.loss)


def cmd_simulate(scenario: Scenario, args: argparse.Namespace) -> tuple[int, list]:
    """The correlation table as CSV plus a one-line JSON summary."""
    dec, rho, loss = scenario.decomposition, scenario.state, scenario.config.loss
    with _config_errors("state gives no probability table: "):
        if args.full:
            table = simulate_entangled(bell_strategy(rho), dec.ensembles, include_full=True)
        else:
            table = fast_entangled_table(rho, dec.ensembles)
        table = apply_uniform_loss(table, loss)
    expected = _closed_form(scenario)
    summary = {
        "I": mdi_value(dec, table),
        "expected": None if expected is None else expected(scenario.v),
        "witness_value_scaled": witness_value(scenario.witness, rho) / math.prod(rho.dims),
    }
    if args.full and math.prod(loss) < 1.0:
        # lossy full distributions are a convention: lost clicks are folded
        # into outcome 0, keeping each row normalized
        summary["loss_folding"] = "outcome-0"
    return 0, [(table_to_csv(table), args.out), (serialize.dumps(summary), args.summary)]


def cmd_scan(scenario: Scenario, args: argparse.Namespace) -> tuple[int, list]:
    """CSV violation curve (v, I, expected, abs_err) over a parameter grid, its body one ``%.17g`` format."""
    v_from, v_to, steps = args.v_from, args.v_to, args.steps
    if not (0.0 <= v_from < v_to <= 1.0):
        raise ConfigError(f"need 0 <= from < to <= 1, got [{v_from}, {v_to}]")
    if steps < 2:
        raise ConfigError(f"need at least 2 steps, got {steps}")
    if scenario.family is None:
        raise ConfigError("scan requires a named state family")
    grid = [min(v_from + (v_to - v_from) * i / (steps - 1), v_to) for i in range(steps)]
    rows = violation_scan(scenario.family, scenario.decomposition, grid, scenario.config.loss)
    expected = _closed_form(scenario)  # the closed-form columns, decided once per scan
    if expected is not None:
        rows = [(v, value, e, abs(value - e)) for v, value in rows for e in (expected(v),)]
    line = "%.17g,%.17g" + (",,\n" if expected is None else ",%.17g,%.17g\n")
    return 0, [("v,I,expected,abs_err\n" + line * len(rows) % tuple([x for row in rows for x in row]), args.out)]


def cmd_attack(scenario: Scenario, args: argparse.Namespace) -> tuple[int, list]:
    """Run the configured strategy search; its report JSON.

    Exit 0 means the outcome matched the configured expectation: the bound
    held ('bounded'), or a violation was found ('violable', the negative
    control for optimizer power).
    """
    dec, config = scenario.decomposition, scenario.config
    violable = config.attack["expectation"] == "violable"
    with warnings.catch_warnings():
        if violable:
            warnings.simplefilter("ignore")  # inexact/non-witness runs are intentional here
        run = biseparable_attack if config.attack["kind"] == "biseparable" else attack
        report = run(dec, dec.ensembles, replace(config.attack_config, seed=_effective_seed(config.seed)))
    passed = report.min_value < 0.0 if violable else report.min_value >= -BOUND_TOL
    return 0 if passed else 1, [(serialize.dumps(report_to_dict(report)), args.out)]


def cmd_verify(scenario: None, args: argparse.Namespace) -> tuple[int, list]:
    """Run the acceptance checks; one verdict per criterion."""
    seed = _effective_seed(DEFAULT_SEED)
    verdicts = run_all(seed)
    doc = {"seed": seed, "verdicts": [verdict_to_dict(v) for v in verdicts]}
    return 0 if all(v.passed for v in verdicts) else 1, [(serialize.dumps(doc), args.out)]


_CONFIG = (("-c", "--config"), {"required": True})
_OUT = (("-o", "--out"), {})

# name: (command(scenario or None, args), help, its arguments as (flags, add_argument keywords))
COMMANDS = {
    "decompose": (cmd_decompose, "expand a witness over input ensembles", (_CONFIG, _OUT)),
    "simulate": (cmd_simulate, "correlation table and game value for one state", (
        _CONFIG, (("-o", "--out"), {"help": "CSV table destination"}),
        (("--summary",), {"help": "summary JSON destination"}),
        (("--full",), {"action": "store_true", "help": "include all outcome probabilities"}))),
    "scan": (cmd_scan, "violation curve over a state-family parameter", (
        _CONFIG, (("--from",), {"dest": "v_from", "type": float, "default": 0.0}),
        (("--to",), {"dest": "v_to", "type": float, "default": 1.0}),
        (("--steps",), {"type": int, "default": 101}), _OUT)),
    "attack": (cmd_attack, "adversarial search over unentangled strategies", (_CONFIG, _OUT)),
    "verify": (cmd_verify, "run the full acceptance suite", (_OUT,)),
}


@functools.cache  # built on the first call; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mdiw", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            command.add_argument(*flags, **keywords)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_outputs(args.out, getattr(args, "summary", None))
        scenario = load_config(args.config).resolve() if "config" in args else None
        code, artifacts = COMMANDS[args.command][0](scenario, args)
        _write_all(artifacts)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
