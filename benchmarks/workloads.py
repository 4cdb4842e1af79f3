"""The benchmark's workloads: one ``htt`` experiment each, with a config
generated from the benchmark's ``--seed``.

Every workload runs single-threaded (``threads = 1``, BLAS pinned to one
thread by the runner), which is the plain baseline that later changes are
compared against.  Sizes are chosen so one experiment takes 4-7 s on one
core, which lets a 30 s run repeat it and report a median.  The ``tiny``
scale runs the same code paths in well under a second, for the
benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass

# Golden outputs are recorded for this many input cases per workload; the
# benchmark seed selects case ``seed % CASES``, so every run is checked
# against a recorded golden whatever seed it is given.
CASES = 16
_SEED_BASE = 20240901
_SEED_STRIDE = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    why: str
    full: dict
    tiny: dict

    def config_text(self, seed: int, scale: str) -> str:
        """Flat ``key = value`` config for benchmark seed ``seed``."""
        keys = dict(self.full if scale == "full" else self.tiny)
        keys["seed"] = htt_seed(seed)
        keys["threads"] = 1
        return "".join(
            f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
            for k, v in keys.items()
        )


def case_of(seed: int) -> int:
    return seed % CASES


def htt_seed(seed: int) -> int:
    return _SEED_BASE + _SEED_STRIDE * case_of(seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "limit-w512",
            "limit",
            "complex eigh of 1025-dim operator windows dominates; real ESDs "
            "on the side; matrices idle",
            full={"alpha": 0.5, "n_list": (256, 512, 1024), "w": 512,
                  "replicas": 6, "ref_envs": 2},
            tiny={"alpha": 0.5, "n_list": (16, 32, 64), "w": 16,
                  "replicas": 2, "ref_envs": 2},
        ),
        Workload(
            "properties-a0.9",
            "properties",
            "series length hits its 100000 cap, so the cosine table "
            "dominates time and peak memory",
            full={"alpha": 0.9, "w": 48, "replicas": 2},
            tiny={"alpha": 0.9, "w": 8, "l": 2, "n_list": 16, "replicas": 2},
        ),
        Workload(
            "ladder-n256",
            "ladder",
            "dense 2N x 2N complex sandwiches and eigvalsh; bypasses the "
            "limit operator",
            full={"alpha": 0.5, "n_list": 256, "l_list": (8, 32),
                  "replicas": 5},
            tiny={"alpha": 0.5, "n_list": 16, "l_list": (2, 4),
                  "replicas": 5},
        ),
        Workload(
            "esd-n2048",
            "esd",
            "real N x N Toeplitz eigvalsh only; window, sandwich and series "
            "changes predict no change here",
            full={"alpha": 0.5, "n_list": 2048, "replicas": 3},
            tiny={"alpha": 0.5, "n_list": 64, "replicas": 2},
        ),
    )
}
