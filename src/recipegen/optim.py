"""Adam with decoupled weight decay and linear warmup."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data import check_int, check_number

# added to the root of the second-moment estimate before it divides the update
EPS = 1e-8


@dataclass
class OptimizerConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    warmup_epochs: int = 5

    def __post_init__(self):
        for name in ("lr", "beta1", "beta2", "weight_decay"):
            check_number(f"optimizer.{name}", getattr(self, name), 0.0)
        if self.lr == 0:
            raise ValueError("optimizer.lr must be positive")
        for name in ("beta1", "beta2"):
            if getattr(self, name) >= 1:
                raise ValueError(f"optimizer.{name} must lie in [0, 1), got {getattr(self, name)!r}")
        check_int("optimizer.warmup_epochs", self.warmup_epochs, 0)


def warmup_lr(config: OptimizerConfig, epoch: int) -> float:
    """Linear warmup over the first ``warmup_epochs`` epochs, then constant.

    Epoch ``e`` (0-based) uses ``lr * (e + 1) / warmup_epochs`` while
    ``e + 1 <= warmup_epochs``; epoch 0 of 5 therefore runs at lr / 5.
    """
    if config.warmup_epochs <= 0:
        return config.lr
    return config.lr * min(1.0, (epoch + 1) / config.warmup_epochs)


class Adam:
    """Standard Adam on a named parameter dict, decay decoupled from the
    moment-scaled update."""

    def __init__(self, params: dict[str, Tensor], config: OptimizerConfig):
        self.params = params
        self.config = config
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, epoch: int = 0) -> None:
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        lr = warmup_lr(cfg, epoch)
        bias1 = 1.0 - cfg.beta1**t
        bias2 = 1.0 - cfg.beta2**t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            self.m[name] = cfg.beta1 * self.m[name] + (1.0 - cfg.beta1) * p.grad
            self.v[name] = cfg.beta2 * self.v[name] + (1.0 - cfg.beta2) * p.grad * p.grad
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            update = m_hat / (np.sqrt(v_hat) + EPS)
            if cfg.weight_decay:
                update = update + cfg.weight_decay * p.data
            p.data = p.data - lr * update
