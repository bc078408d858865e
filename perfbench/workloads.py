"""The benchmark's three workloads.

Each workload is built from ``--seed`` by :func:`build` (the part timed as
``setup_s``), then played in whole rounds of the same operations.  A round
times only calls into the package; the reference checks run afterwards,
outside the timed region.  The package is always reached through module
attributes (``game.simulate_separable``, ``cli.main``), so the traced run
sees every call the benchmark makes.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from timing import Clock, Outcome
from mdiw import cli, game, witness

# ``mdiw.attack`` is also the name of the package's attack function.
attack_layer = importlib.import_module("mdiw.attack")


@dataclass
class Workload:
    """Shared bookkeeping: the seed and the checks that failed."""

    seed: int
    problems: list[str] = field(default_factory=list)

    def check(self, label: str, result: tuple[bool, str]) -> bool:
        ok, detail = result
        if not ok and len(self.problems) < 20:
            self.problems.append(f"{label}: {detail}")
        return ok


def _seed_for(*parts: int) -> int:
    return int(np.random.default_rng(parts).integers(2**31))


# -- attack_search ------------------------------------------------------------

# verify runs 200 x 500 (separable) and 100 x 500 (biseparable); this is the
# same search at a fixed, scaled-down budget.  At 200 iterations a restart
# misses the optimizer-power gate with probability about 1e-3, so four
# restarts keep that gate clear on every seed.
ATTACK_BUDGET = {"restarts": 4, "iterations": 200}
GRADED_EPS = (1e-2, 1e-4)
# The graded controls fail on every seed today (the greedy refinement cannot
# resolve violations below about 1e-2); a fixed seed keeps their inputs, and
# so the failed share, independent of --seed.
GRADED_SEED = 101


class AttackSearch(Workload):
    """Fixed separable, biseparable, non-witness and graded-control attack jobs."""

    def __init__(self, seed: int):
        super().__init__(seed)
        tet = witness.tetrahedron_beta()
        ens = tet.ensembles
        non_witness = witness.decompose(witness.Witness(-ref.projector(ref.SINGLET_KET), (2, 2)), ens)
        graded = [
            witness.decompose(witness.Witness(ref.singlet_witness() - eps * np.eye(4), (2, 2)), ens)
            for eps in GRADED_EPS
        ]
        # (label, search, decomposition, target operator, mixture, share, gate)
        self.jobs = [
            ("separable_tetrahedron", "separable", tet, ref.singlet_witness(), 8, 4, "bounded"),
            ("separable_pauli6", "separable", witness.pauli6_beta(), ref.singlet_witness(), 4, 2, "bounded"),
            ("biseparable_ghz", "biseparable", witness.ghz_beta(), ref.ghz_witness(), 6, 2, "bounded"),
            ("non_witness", "separable", non_witness, -ref.projector(ref.SINGLET_KET), 4, 2, "non_witness"),
        ] + [
            (f"graded_{eps:g}", "separable", dec, ref.singlet_witness() - eps * np.eye(4), 4, 2, eps)
            for eps, dec in zip(GRADED_EPS, graded)
        ]

    def prepare(self, workdir: Path) -> None:
        """Reference data that is not part of the package's set-up."""
        for label, _, dec, target, *_ in self.jobs:
            names = [e.name for e in dec.ensembles]
            self.check(f"{label} beta", ref.check_reconstruction(dec.beta, [ref.ENSEMBLES[n] for n in names], target))
        nw = self.jobs[3][2]
        self.grid_min = ref.grid_minimum(nw.beta, ref.TETRAHEDRON_BLOCH, ref.TETRAHEDRON_BLOCH)

    def round(self, r: int, clock: Clock) -> list[Outcome]:
        out = []
        for j, (label, kind, dec, _, mixture, share, gate) in enumerate(self.jobs):
            seed = GRADED_SEED if isinstance(gate, float) else _seed_for(self.seed, r, j)
            config = attack_layer.AttackConfig(
                mixture_size=mixture, share_dim=share, seed=seed, **ATTACK_BUDGET
            )
            search = attack_layer.attack if kind == "separable" else attack_layer.biseparable_attack
            report, op = clock.call(kind, search, dec, dec.ensembles, config)
            value = report.min_value
            self.check(f"{label} rescore", ref.check_rescore(_rescore(dec, report.best_strategy), value))
            if gate == "bounded":
                op.failed = not self.check(label, ref.check_bounded(value))
            elif gate == "non_witness":
                op.failed = not self.check(label, ref.check_non_witness(value, self.grid_min))
            else:
                op.failed = not ref.check_graded(value, gate)[0]  # known failure, not a wrong answer
            op.evaluations = report.evaluations
            out.append(op)
        return out

    def figures(self, p) -> dict:
        return {
            "separable_attack_s": (p.median({"separable"}), "s"),
            "biseparable_attack_s": (p.median({"biseparable"}), "s"),
        }


def _rescore(dec, strategy) -> float:
    """Re-score a strategy from its raw arrays with the reference einsum."""
    ensembles = [ref.ENSEMBLES[e.name] for e in dec.ensembles]
    elements = [m.element(1) for m in strategy.measurements]
    if isinstance(strategy, game.SeparableStrategy):
        shares = [
            np.stack([term[p].matrix for term in strategy.share_states])
            for p in range(strategy.n_parties)
        ]
        return ref.separable_value(dec.beta, ensembles, strategy.weights, shares, elements)
    terms = [
        (t.weight, t.group, t.group_state.matrix, t.singleton, t.singleton_state.matrix)
        for t in strategy.terms
    ]
    return ref.biseparable_value(dec.beta, ensembles, terms, elements)


# -- cli_scan -----------------------------------------------------------------

# Scan lengths: every grid brackets its threshold without landing on it.
SCAN_STEPS = {"werner_tetrahedron": 101, "werner_pauli6": 51, "ghz": 31, "ghz_lossy": 31}


def _config(parties: int, witness_name: str, ensemble: str, family: str, v: float, seed: int, **extra) -> dict:
    return {
        "parties": parties,
        "witness": witness_name,
        "ensembles": [ensemble] * parties,
        "state": {"family": family, "v": v},
        "seed": seed,
        **extra,
    }


class CliScan(Workload):
    """``mdiw decompose``, ``scan`` and ``simulate --full`` through ``cli.main``."""

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng((seed, 0))
        lossy = {"loss": [float(e) for e in rng.uniform(0.6, 1.0, size=3)]}
        sim_v = float(rng.uniform(0.2, 1.0))
        self.configs = {
            "decompose_singlet_tetrahedron": _config(2, "singlet", "tetrahedron", "werner", 1.0, seed, decomposition="solve"),
            "decompose_singlet_pauli6": _config(2, "singlet", "pauli6", "werner", 1.0, seed, decomposition="solve"),
            "decompose_ghz_tetrahedron": _config(3, "ghz", "tetrahedron", "noisy_ghz", 1.0, seed, decomposition="solve"),
            "decompose_ghz_pauli6": _config(3, "ghz", "pauli6", "noisy_ghz", 1.0, seed, decomposition="solve"),
            "scan_werner_tetrahedron": _config(2, "singlet", "tetrahedron", "werner", 1.0, seed),
            "scan_werner_pauli6": _config(2, "singlet", "pauli6", "werner", 1.0, seed),
            "scan_ghz": _config(3, "ghz", "tetrahedron", "noisy_ghz", 1.0, seed),
            "scan_ghz_lossy": _config(3, "ghz", "tetrahedron", "noisy_ghz", 1.0, seed, **lossy),
            "simulate_ghz_lossy": _config(3, "ghz", "tetrahedron", "noisy_ghz", sim_v, seed, **lossy),
        }
        # The package's own set-up for these configs: ensembles and decompositions.
        for cfg in self.configs.values():
            cli.ScenarioConfig.from_dict(cfg).resolve_decomposition()

    def prepare(self, workdir: Path) -> None:
        self.dir = workdir
        for key, cfg in self.configs.items():
            (workdir / f"{key}.json").write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        self.first_hashes: dict[str, str] | None = None

    def _commands(self):
        d = self.dir
        for key, cfg in self.configs.items():
            verb = key.split("_")[0]
            args = [verb, "-c", str(d / f"{key}.json")]
            outs = [d / f"{key}.out"]
            if verb == "scan":
                args += ["--from", "0", "--to", "1", "--steps", str(SCAN_STEPS[key[5:]])]
            if verb == "simulate":
                outs.append(d / f"{key}.summary.json")
                args += ["--full", "--summary", str(outs[1])]
            yield key, verb, cfg, args + ["-o", str(outs[0])], outs

    def round(self, r: int, clock: Clock) -> list[Outcome]:
        out = []
        hashes = {}
        for key, verb, cfg, argv, outs in self._commands():
            code, op = clock.call(verb, cli.main, argv)
            texts = [p.read_bytes() for p in outs]
            hashes.update({p.name: ref.sha256(t) for p, t in zip(outs, texts)})
            ok = self.check(f"{key} exit code", (code == 0, f"exit {code}"))
            ok = ok and self.check(key, self._verify(verb, cfg, [t.decode() for t in texts]))
            op.failed = not ok
            op.points = SCAN_STEPS[key[5:]] if verb == "scan" else 0
            out.append(op)
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif not self.check(f"round {r} artifacts", ref.check_identical(self.first_hashes, hashes)):
            out[-1].failed = True
        return out

    def _verify(self, verb: str, cfg: dict, texts: list[str]) -> tuple[bool, str]:
        etas = cfg.get("loss", [1.0] * cfg["parties"])
        family = cfg["state"]["family"]
        if verb == "decompose":
            return ref.check_decompose_json(texts[0], cfg["witness"])
        if verb == "scan":
            return ref.check_scan_csv(texts[0], family, etas)
        rho = ref.FAMILIES[family](cfg["state"]["v"])
        ok_t, table = ref.check_full_table_csv(texts[0], rho, cfg["ensembles"], etas)
        ok_s, summary = ref.check_summary_json(texts[1], family, cfg["state"]["v"], cfg["witness"], etas)
        return ok_t and ok_s, f"{table}; {summary}"

    def figures(self, p) -> dict:
        ops = p.rounds[0]
        per_round = {verb: sum(o.kind == verb for o in ops) for verb in ("decompose", "simulate")}
        return {
            "scan_points_per_s": (sum(o.points for o in ops) / p.median({"scan"}), "1/s"),
            "simulate_s": (p.median({"simulate"}) / per_round["simulate"], "s"),
            "decompose_s": (p.median({"decompose"}) / per_round["decompose"], "s"),
        }


# -- separable_sampling -------------------------------------------------------

# Per round: separable strategies with Kraus pre-maps on the tetrahedron
# singlet game, and biseparable strategies on the GHZ game.  Mixture sizes
# and Kraus counts cycle with the sample index, so every round does the same
# amount of work whatever the seed.
SEPARABLE_PER_ROUND = 40
BISEPARABLE_PER_ROUND = 4


class SeparableSampling(Workload):
    """Random unentangled strategies, simulated by ``simulate_separable`` and scored."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.singlet = witness.tetrahedron_beta()
        self.ghz = witness.ghz_beta()

    def prepare(self, workdir: Path) -> None:
        self.ens2 = [ref.ENSEMBLES["tetrahedron"]] * 2
        self.check("tetrahedron beta", ref.check_reconstruction(self.singlet.beta, self.ens2, ref.singlet_witness()))
        self.check("ghz beta", ref.check_reconstruction(self.ghz.beta, self.ens2 + self.ens2[:1], ref.ghz_witness()))

    def _separable_sample(self, rng, i: int):
        strategy = attack_layer.random_separable_strategy((2, 2), 2, 1 + i % 4, rng)
        kraus = [attack_layer.random_kraus_set(4, 1 + (i + p) % 3, rng) for p in range(2)]
        povms = tuple(
            game.apply_pre_measurement_map(m, k) for m, k in zip(strategy.measurements, kraus)
        )
        mapped = game.SeparableStrategy(strategy.weights, strategy.share_states, povms)
        value = game.mdi_value(self.singlet, game.simulate_separable(mapped, self.singlet.ensembles))
        return value, strategy, kraus

    def _biseparable_sample(self, rng, i: int):
        strategy = attack_layer.random_biseparable_strategy((2, 2, 2), 2, 1 + i % 4, rng)
        value = game.mdi_value(self.ghz, game.simulate_separable(strategy, self.ghz.ensembles))
        return value, strategy

    def round(self, r: int, clock: Clock) -> list[Outcome]:
        rng = np.random.default_rng((self.seed, r))
        out = []
        for i in range(SEPARABLE_PER_ROUND):
            (value, strategy, kraus), op = clock.call("separable", self._separable_sample, rng, i)
            elements = [
                ref.kraus_mapped(m.element(1), k) for m, k in zip(strategy.measurements, kraus)
            ]
            shares = [np.stack([t[p].matrix for t in strategy.share_states]) for p in range(2)]
            expected = ref.separable_value(self.singlet.beta, self.ens2, strategy.weights, shares, elements)
            ok = self.check(f"separable sample {r}.{i}", ref.check_bounded(value))
            ok = self.check(f"separable sample {r}.{i} rescore", ref.check_rescore(expected, value)) and ok
            op.failed = not ok
            out.append(op)
        for i in range(BISEPARABLE_PER_ROUND):
            (value, strategy), op = clock.call("biseparable", self._biseparable_sample, rng, i)
            ok = self.check(f"biseparable sample {r}.{i}", ref.check_bounded(value))
            ok = self.check(
                f"biseparable sample {r}.{i} rescore", ref.check_rescore(_rescore(self.ghz, strategy), value)
            ) and ok
            op.failed = not ok
            out.append(op)
        return out

    def figures(self, p) -> dict:
        return {"samples_per_s": (len(p.rounds[0]) / p.median(), "1/s")}


WORKLOADS = {"attack_search": AttackSearch, "cli_scan": CliScan, "separable_sampling": SeparableSampling}


def build(name: str, seed: int) -> Workload:
    """The package-side set-up of a workload: imports done, decompositions and ensembles built."""
    return WORKLOADS[name](seed)
