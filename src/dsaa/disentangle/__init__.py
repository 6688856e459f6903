"""Latent/driving-signal separation: KL penalty, adversarial MI bound,
perturbation consistency at the joints' rigid anchors."""

from .losses import (kl_loss, mine_loss, mi_estimate, adversarial_dis_loss,
                     joint_anchor_uvs, perturbation_loss)
from .stats import StatisticsNet, fit_statistics

__all__ = [
    "kl_loss", "mine_loss", "mi_estimate", "adversarial_dis_loss",
    "joint_anchor_uvs", "perturbation_loss",
    "StatisticsNet", "fit_statistics",
]
