"""fomo: how likely is it that an incomplete document search missed a topic?

A search that finds most relevant documents usually finds all the
relevant *information*, because topics repeat across documents. This
package puts numbers on that: closed-form bounds on the chance a
never-sighted topic hides in the missed documents, coupon-collector
expectations for how long full topic coverage takes, and seeded
shuffle simulations over multi-label corpora to check the math against
scan experiments.
"""

from . import analytic, collector, corpus, simulation
from .analytic import *  # noqa: F401,F403
from .collector import *  # noqa: F401,F403
from .corpus import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *analytic.__all__,
    *collector.__all__,
    *corpus.__all__,
    *simulation.__all__,
]
