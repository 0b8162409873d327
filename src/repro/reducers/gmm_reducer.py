"""GMM-based domain reduction — the paper's method (Section 4.2).

Pipeline per column:

1. choose K (fixed, or via VBGMM on a uniform sample) and initialise;
2. train by SGD on the NLL — either standalone here, or jointly inside
   IAM via the exposed :attr:`module`;
3. ``transform``: argmax-responsibility component index (Equation 5);
4. ``range_mass``: the per-component range probabilities
   ``P_GMM^k(R_i)`` used by the unbiased sampler, computed by the
   configured interval estimator (Monte-Carlo per the paper, exact CDF,
   or empirical fractions).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, NotFittedError
from repro.mixtures.base import GaussianMixture1D
from repro.mixtures.em import init_params
from repro.mixtures.interval import IntervalMassEstimator, make_interval_estimator
from repro.mixtures.sgd_gmm import SGDGaussianMixture
from repro.mixtures.vbgmm import select_components
from repro.reducers.base import DomainReducer
from repro.utils.rng import ensure_rng


class GMMReducer(DomainReducer):
    """Reduce a continuous column to GMM component indices.

    Parameters
    ----------
    n_components:
        Fixed K, or ``None`` to let the VBGMM choose (paper default is a
        fixed 30, "can be decided by VBGM automatically").
    interval_kind:
        'montecarlo' (paper), 'exact', or 'empirical'.
    samples_per_component:
        S in the paper's Monte-Carlo interval estimator (default 10K).
    sgd_epochs:
        Standalone-fit epochs; ignored when IAM co-trains the module.
    """

    is_exact = False

    def __init__(
        self,
        n_components: int | None = 30,
        interval_kind: str = "montecarlo",
        samples_per_component: int = 10_000,
        sgd_epochs: int = 8,
        sgd_batch_size: int = 2048,
        sgd_lr: float = 5e-2,
        max_vb_components: int = 50,
        seed=None,
    ):
        if n_components is not None and n_components < 1:
            raise ConfigError("n_components must be >= 1 or None")
        self.n_components = n_components
        self.interval_kind = interval_kind
        self.samples_per_component = samples_per_component
        self.sgd_epochs = sgd_epochs
        self.sgd_batch_size = sgd_batch_size
        self.sgd_lr = sgd_lr
        self.max_vb_components = max_vb_components
        self._rng = ensure_rng(seed)
        self.module: SGDGaussianMixture | None = None
        self.mixture: GaussianMixture1D | None = None
        self._interval: IntervalMassEstimator | None = None
        self.fit_values: np.ndarray | None = None
        self.draw_state: dict | None = None
        self.n_tokens = 0

    # ------------------------------------------------------------------
    def initialise(self, values: np.ndarray) -> SGDGaussianMixture:
        """Build the trainable module (VBGMM or k-means++ init), no SGD yet.

        IAM calls this and then owns the SGD updates inside its joint
        training loop; ``finalise`` must be called afterwards.
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if self.n_components is None:
            _, init = select_components(
                values, max_components=self.max_vb_components, seed=self._rng
            )
        else:
            init = init_params(values, self.n_components, rng=self._rng)
        loc = float(values.mean())
        scale = float(values.std()) or 1.0
        self.module = SGDGaussianMixture(init, loc=loc, scale=scale)
        self.n_tokens = self.module.n_components
        self.fit_values = values
        return self.module

    def finalise(self) -> "GMMReducer":
        """Freeze the trained module (or take a restored :attr:`mixture`)
        and build the interval estimator. The first call keeps the
        stream state the interval draws start from and later calls
        replay it, so the Monte-Carlo samples are bitwise the same on
        every call, and after a restore of the fitted ``draw_state``."""
        if self.module is not None:
            self.mixture = self.module.freeze()
        mixture = self._require_mixture()
        if self.draw_state is None:
            self.draw_state = self._rng.bit_generator.state
        else:
            self._rng.bit_generator.state = self.draw_state
        self.n_tokens = mixture.n_components
        self._interval = make_interval_estimator(
            self.interval_kind,
            mixture,
            values=self.fit_values,
            samples_per_component=self.samples_per_component,
            seed=self._rng,
        )
        return self

    # ------------------------------------------------------------------
    def fit(self, values: np.ndarray) -> "GMMReducer":
        """Standalone fit: initialise + SGD on the NLL + finalise."""
        from repro.nn.optim import Adam

        module = self.initialise(values)
        values = self.fit_values
        optimizer = Adam(module.parameters(), lr=self.sgd_lr)
        for _ in range(self.sgd_epochs):
            order = self._rng.permutation(len(values))
            for start in range(0, len(values), self.sgd_batch_size):
                batch = values[order[start : start + self.sgd_batch_size]]
                loss = module.nll(batch)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        return self.finalise()

    # ------------------------------------------------------------------
    def _require_mixture(self) -> GaussianMixture1D:
        if self.mixture is None:
            raise NotFittedError("GMMReducer used before fit()/finalise()")
        return self.mixture

    def transform(self, values: np.ndarray) -> np.ndarray:
        return self._require_mixture().assign(np.asarray(values, dtype=np.float64))

    def _interval_mass(self, low: float, high: float) -> np.ndarray:
        self._require_mixture()
        assert self._interval is not None
        return self._interval.masses(low, high)

    def size_bytes(self) -> int:
        return self._require_mixture().size_bytes()
