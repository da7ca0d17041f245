"""Learning-based entity resolution (Section 2.1.2 and the SVM baseline).

The paper's strongest machine-only baseline trains an SVM on feature vectors
built from edit distance and cosine similarity per attribute, then ranks the
remaining pairs by classifier score.  Because no third-party ML library is
available offline, the classifiers here are implemented from scratch on
numpy: a linear SVM trained with Pegasos-style stochastic sub-gradient
descent.
"""

from repro.learning.svm import LinearSVM
from repro.learning.training import TrainingSet, sample_training_pairs
from repro.learning.classifier_er import LearningBasedER

__all__ = [
    "LinearSVM",
    "TrainingSet",
    "sample_training_pairs",
    "LearningBasedER",
]
