"""SGD-trainable Gaussian mixture (the paper's Equation 4).

IAM trains its GMMs with stochastic gradient descent on the negative
log-likelihood, *not* EM, so that GMM updates and AR-model updates share
one mini-batch loop (Section 4.2, "Model Training"). The module is
parameterised for unconstrained optimisation:

- mixing weights through a softmax over logits,
- variances through ``exp(2 * log_std)``.

Values are internally standardised (z-scored) before the likelihood so
the learning rate is scale-free; the exported
:class:`~repro.mixtures.base.GaussianMixture1D` is mapped back to the
original data scale.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor
from repro.errors import ConfigError
from repro.mixtures.base import GaussianMixture1D
from repro.nn.module import Module, Parameter

_LOG_2PI = math.log(2.0 * math.pi)


class SGDGaussianMixture(Module):
    """A 1-D GMM whose NLL is differentiable through the autodiff engine.

    Parameters
    ----------
    init:
        A :class:`GaussianMixture1D` (typically from the VBGMM) providing
        the initial weights/means/variances.
    loc, scale:
        Standardisation applied to inputs: the module models
        ``z = (x - loc) / scale``. Callers normally pass the column's mean
        and standard deviation.
    """

    def __init__(self, init: GaussianMixture1D, loc: float = 0.0, scale: float = 1.0):
        super().__init__()
        if scale <= 0:
            raise ConfigError(f"scale must be positive, got {scale}")
        self.loc = float(loc)
        self.scale = float(scale)
        # Sort once at initialisation so component ids are mean-ordered;
        # freeze() must then PRESERVE index order — ids are the AR model's
        # token vocabulary and may not be permuted after training.
        init = init.sorted_by_mean()
        z_means = (init.means - self.loc) / self.scale
        z_vars = init.variances / self.scale**2
        with np.errstate(divide="ignore"):
            logits = np.log(np.clip(init.weights, 1e-12, None))
        self.logits = Parameter(logits - logits.max())
        self.means = Parameter(z_means)
        self.log_stds = Parameter(0.5 * np.log(np.maximum(z_vars, 1e-12)))

    @property
    def n_components(self) -> int:
        return int(self.means.size)

    # ------------------------------------------------------------------
    def component_log_joint(self, x: np.ndarray) -> Tensor:
        """(N, K) tensor of log(w_k) + log N(z | mu_k, sigma_k^2)."""
        z = (np.asarray(x, dtype=np.float64).reshape(-1, 1) - self.loc) / self.scale
        z = Tensor(z)
        log_w = ops.log_softmax(self.logits.reshape(1, -1), axis=-1)
        means = self.means.reshape(1, -1)
        log_stds = self.log_stds.reshape(1, -1)
        inv_var = (log_stds * (-2.0)).exp()
        quad = (z - means) ** 2 * inv_var
        return log_w + (log_stds * (-1.0)) - 0.5 * (quad + _LOG_2PI)

    def log_prob(self, x: np.ndarray) -> Tensor:
        """(N,) mixture log density (of the standardised variable)."""
        return ops.logsumexp(self.component_log_joint(x), axis=1)

    def nll(self, x: np.ndarray) -> Tensor:
        """Equation 4: mean negative log-likelihood of a batch."""
        return -self.log_prob(x).mean()

    def forward(self, x: np.ndarray) -> Tensor:
        return self.nll(x)

    # ------------------------------------------------------------------
    def assign_numpy(self, x: np.ndarray) -> np.ndarray:
        """Argmax component assignment with the *current* parameters.

        Pure-numpy fast path used every batch inside IAM's joint training
        loop (the assignment is discrete, so no gradient flows through it
        — matching the paper's argmax design choice in Section 4.2).
        """
        z = (np.asarray(x, dtype=np.float64).reshape(-1, 1) - self.loc) / self.scale
        logits = self.logits.data
        log_w = logits - logits.max()
        log_stds = self.log_stds.data
        inv_var = np.exp(-2.0 * log_stds)
        joint = log_w[None, :] - log_stds[None, :] - 0.5 * (z - self.means.data[None, :]) ** 2 * inv_var[None, :]
        return np.argmax(joint, axis=1)

    # ------------------------------------------------------------------
    def freeze(self) -> GaussianMixture1D:
        """Export current parameters as a data-scale frozen mixture.

        Component index order is preserved (NOT re-sorted): the indices
        are token ids already baked into the trained AR model.
        """
        e = np.exp(self.logits.data - self.logits.data.max())
        weights = e / e.sum()
        means = self.means.data * self.scale + self.loc
        variances = np.exp(2.0 * self.log_stds.data) * self.scale**2
        return GaussianMixture1D(weights, means, np.maximum(variances, 1e-12))


def fit_sgd_gmm(
    x: np.ndarray,
    init: GaussianMixture1D,
    epochs: int = 20,
    batch_size: int = 1024,
    lr: float = 5e-2,
    seed=None,
) -> GaussianMixture1D:
    """Convenience one-shot SGD fit (used standalone; IAM embeds the module).

    Standardises with the sample mean/std, runs Adam on mini-batches of
    the NLL, and returns the frozen, mean-sorted mixture.
    """
    from repro.nn.optim import Adam
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    loc = float(np.mean(x))
    scale = float(np.std(x)) or 1.0
    module = SGDGaussianMixture(init, loc=loc, scale=scale)
    optimizer = Adam(module.parameters(), lr=lr)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), batch_size):
            batch = x[order[start : start + batch_size]]
            loss = module.nll(batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    return module.freeze()
