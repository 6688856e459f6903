"""Latent/driving-signal separation: KL penalty, adversarial MI bound,
perturbation consistency at the joints' rigid anchors, and a kernel
independence test."""

from .losses import (kl_loss, mine_loss, adversarial_dis_loss,
                     joint_anchor_uvs, perturbation_loss)
from .stats import StatisticsNet, hsic_test

__all__ = [
    "kl_loss", "mine_loss", "adversarial_dis_loss",
    "joint_anchor_uvs", "perturbation_loss",
    "StatisticsNet", "hsic_test",
]
