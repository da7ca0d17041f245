"""Simulated crowdsourcing platform (the AMT substitute).

The paper evaluates on Amazon Mechanical Turk; offline we replace AMT with a
parameterised simulator that reproduces the crowd-facing behaviour the
experiments depend on:

* workers with different reliability profiles (reliable, noisy, spammer),
* per-HIT replication into multiple assignments done by distinct workers,
* qualification tests that filter out most spammers and make workers more
  careful, at the price of a smaller worker pool (latency),
* a pricing model ($0.02 reward + $0.005 platform fee per assignment in the
  paper), and
* a latency model driven by the Section-6 comparison counts and by how
  attractive each HIT type is to workers.

Every stochastic component is seeded, so experiment runs are reproducible.
"""

from repro.crowd.worker import Worker, WorkerPool, WorkerProfile
from repro.crowd.qualification import QualificationTest
from repro.crowd.pricing import PricingModel
from repro.crowd.latency import LatencyModel, LatencyEstimate
from repro.crowd.platform import SimulatedCrowdPlatform, CrowdRunResult
from repro.crowd.faults import AssignmentFate, FaultPlan
from repro.crowd.async_platform import (
    AsyncCrowd,
    AsyncCrowdPlatform,
    BackpressureError,
    VoteDelivery,
)

__all__ = [
    "Worker",
    "WorkerPool",
    "WorkerProfile",
    "QualificationTest",
    "PricingModel",
    "LatencyModel",
    "LatencyEstimate",
    "SimulatedCrowdPlatform",
    "CrowdRunResult",
    "AssignmentFate",
    "FaultPlan",
    "AsyncCrowd",
    "AsyncCrowdPlatform",
    "BackpressureError",
    "VoteDelivery",
]
