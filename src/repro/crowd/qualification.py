"""Qualification tests (Section 7.1).

Before doing real HITs, each worker answers a small fixed set of record
pairs and is admitted only if *all* answers are correct.  Spammers are very
likely to fail (a random answerer passes a three-question test with
probability 1/8) and honest workers are nudged to read the instructions more
carefully, which the worker model captures with a carefulness boost.
"""

from __future__ import annotations

from typing import List

from repro.crowd.worker import Worker, WorkerPool


class QualificationTest:
    """A pass/fail test of ``QUESTION_COUNT`` pairwise questions."""

    QUESTION_COUNT = 3

    def administer(self, worker: Worker) -> bool:
        """Run the test for one worker; marks and returns qualification."""
        # Alternate true answers so "always-yes"/"always-no" spammers cannot
        # pass by constant answering.
        correct = 0
        for question_index in range(self.QUESTION_COUNT):
            truth = question_index % 2 == 0
            if worker.answer_comparison(truth) == truth:
                correct += 1
        passed = correct == self.QUESTION_COUNT
        worker.qualified = passed
        return passed

    def filter_pool(self, pool: WorkerPool) -> List[Worker]:
        """Administer the test to every worker of a pool; return those who pass."""
        return [worker for worker in pool if self.administer(worker)]
