"""autoprepad_ray — a Ray-Data-native schema & constraint validation engine.

Built from scratch (NOT a port) with the data-quality capabilities of the
reference AutoPrepAD pipeline (see /root/repo/SURVEY.md): per-column
statistical profiles (count / null-rate / min-max / quantiles / distinct),
Tukey-fence and MAD modified-Z outlier evidence with row totals and
anomaly scores/labels, uniqueness, referential integrity, distribution
drift (PSI/KS), near-duplicate detection, plus the large-scale
training-data-pipeline operators (dedup families, ANN similarity search,
text analysis, multimodal decode stages).

Everything is expressed Ray-Data-first: ``ray.data.Dataset`` pipelines of
``map_batches`` over zero-copy Arrow batches as stateless tasks (actor
pools only for heavy per-worker state; no stage has any yet),
partial-aggregate-then-groupby for the wide steps, and
per-partition checkpointed outputs for resumability.
"""

__version__ = "0.1.0"
