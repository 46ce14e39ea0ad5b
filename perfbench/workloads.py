"""Workload definitions: run configurations built from a workload seed.

Every workload is one or two ``spinquench`` CLI commands run in a fresh
process.  The seed is the only input that varies from run to run; the
same seed always yields the same configuration text.

``toy=True`` gives the same code paths at sizes that finish in seconds
(n <= 6 lattices, 2-point grids, a 3-beta scan); ``selftest.py`` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: planted values of the synthetic scaling family (scripts/synthetic_validation.py)
PLANTED_P_C = 0.0266
PLANTED_NU = 0.42

#: 5 of the script's 10 p values.  0.033, the nearest sampled p above p_c,
#: is left out, so the grid does not bracket p_c closely: the xi fit then
#: locks p_c onto the sampled p = 0.048 (nu comes out ~6x too large), the
#: lock-on defect the script's full grid shows at p = 0.02.  p_c_rel_err
#: and nu_rel_err therefore move when that defect is fixed.
SYNTH_P_LIST = "0.009, 0.014, 0.02, 0.048, 0.075"

#: noise realization of the planted family.  Fixed, because the collapse
#: optimizer's work differs up to 2x between noise realizations (83k vs
#: 166k pair evaluations measured on another 5-curve grid), which would
#: make wall time depend on the seed; the workload seed drives the
#: bootstrap resampling instead.
SYNTH_NOISE_SEED = 7

_EXACT = "estimator.kind = exact\nestimator.keep_spectra = true\n"

_TYPICALITY = ("seeds = {seed}\nestimator.kind = typicality\n"
               "estimator.n_samples = 2\nestimator.keep_spectra = true\n")

_SYNTH = """\
run.label = planted
synth.p_list = {p_list}
synth.p_c = {p_c}
synth.nu = {nu}
synth.s = 0.42
synth.alpha = 2.87
synth.A = 0.58
synth.B = 0.05
synth.noise_level = 0.01
synth.seed = {noise_seed}
synth.time_grid = geom:1.0:500.0:40
scale.input_dir = {input_dir}
scale.beta_grid = 5.7, 1.0, 0.15
scale.t_min = 2.0
scale.growth_t_min = 40.0
scale.n_bootstrap = {n_bootstrap}
scale.bootstrap_seed = {seed}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "simulate" or "synth_scale"
    default_seed: int
    physics: str         # simulate: geometry/protocol/p lines shared with the reference
    estimator: str       # simulate: estimator lines, formatted with the seed
    spec_l1_ceiling: float | None = None   # typicality workloads
    exact_tol: float | None = None         # exact workload: per-order gate vs reference

    @property
    def has_reference(self) -> bool:
        return self.kind == "simulate"

    def config_text(self, seed: int, input_dir: str = "") -> str:
        """Run configuration; synth_scale reads and writes ``input_dir``."""
        if self.kind == "simulate":
            return self.physics + self.estimator.format(seed=seed)
        return self.physics.format(seed=seed, input_dir=input_dir)

    def reference_config_text(self) -> str:
        """Exact-path configuration over the same network, protocol and p."""
        return self.physics + _EXACT


def _lattice(label, shape, protocol):
    return (f"run.label = {label}\ngeometry.kind = cubic_lattice\n"
            f"geometry.shape = {shape}\n{protocol}")


def _synth(n_bootstrap):
    return _SYNTH.format(p_list=SYNTH_P_LIST, p_c=PLANTED_P_C, nu=PLANTED_NU,
                         noise_seed=SYNTH_NOISE_SEED, n_bootstrap=n_bootstrap,
                         seed="{seed}", input_dir="{input_dir}")


def workloads(toy: bool = False) -> dict:
    shape12, shape10 = ("3, 2, 1", "3, 2, 1") if toy else ("3, 2, 2", "5, 2, 1")
    typ_grid = "0.5, 1.5" if toy else "1.5"
    # ~3x the largest spec_l1 over seeds 0-11 (typ12 0.030, floquet10 0.045);
    # typicality error grows as the dimension shrinks, hence the toy ceiling
    typ_ceiling, floquet_ceiling = (0.5, 0.5) if toy else (0.10, 0.15)
    synth = _synth(20 if toy else 50)
    floquet_grid = "1, 2" if toy else "1"
    items = [
        Workload("typ12", "simulate", 0,
                 _lattice("typ12", shape12, "protocol.mode = average\n"
                          f"protocol.time_grid = {typ_grid}\np_sweep = 0.0\n"),
                 _TYPICALITY, spec_l1_ceiling=typ_ceiling),
        Workload("floquet10", "simulate", 0,
                 _lattice("floquet10", shape10, "protocol.mode = floquet\n"
                          "protocol.tau_c = 0.5\n"
                          f"protocol.time_grid = {floquet_grid}\np_sweep = 0.2\n"),
                 _TYPICALITY, spec_l1_ceiling=floquet_ceiling),
        Workload("exact12", "simulate", 0,
                 _lattice("exact12", shape12, "protocol.mode = average\n"
                          "protocol.time_grid = geom:0.5:20.0:2\np_sweep = 0.0\n"),
                 "seeds = {seed}\n" + _EXACT, exact_tol=1e-8),
        Workload("scale_synth", "synth_scale", 3, synth, ""),
    ]
    return {w.name: w for w in items}
