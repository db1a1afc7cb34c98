"""The named choices a user makes on the command line: poolings and NDCG gains.

They are kept apart from the encoder and the metrics that act on them, so
the argument parser can offer them without loading either module.
"""

POOLING_MEAN = "mean"
POOLING_LAST = "last_token"
POOLINGS = (POOLING_MEAN, POOLING_LAST)

GAIN_LINEAR = "linear"
GAIN_EXP = "exp"
