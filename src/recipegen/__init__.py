"""Story-aware recipe generation from feature-level cooking videos.

The library covers the full desk-scale pipeline: a synthetic kitchen world,
oracle candidate analysis, a jointly trained event selector and sentence
generator (with the ingredient-grounded extension), and the DVC evaluation
stack (tIoU, dvc_eval, SODA, event-count statistics).
"""

__version__ = "0.1.0"
