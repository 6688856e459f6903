"""Latent/driving-signal separation: KL penalty, adversarial MI bound,
perturbation consistency."""

from .correspond import CorrespondenceSet, joint_sites
from .losses import (kl_loss, mine_loss, mi_estimate, adversarial_dis_loss,
                     perturbation_loss)
from .stats import StatisticsNet, fit_statistics

__all__ = [
    "CorrespondenceSet", "joint_sites",
    "kl_loss", "mine_loss", "mi_estimate", "adversarial_dis_loss",
    "perturbation_loss",
    "StatisticsNet", "fit_statistics",
]
