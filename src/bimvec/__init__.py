"""Building models to vectors: IFC parsing, property graphs, space grids,
temporal snapshots, biased random walks, and skip-gram embeddings.

Each name lives in its module (``bimvec.step_parser``, ``bimvec.sgns``, ...);
import it from there, so a command loads only what it runs."""

__version__ = "0.1.0"
