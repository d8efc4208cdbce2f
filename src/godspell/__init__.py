"""godspell: segmentation, authorless topic modeling, a two-stage
divine-action annotation cascade, agreement metrics, and corpus statistics
for collections of long-form fiction.

Importing the package imports none of its modules, so a command loads only
what it uses: numpy comes with ``topics`` (``topics-train``,
``topics-inspect``, ``stats``), scipy only with ``topics-train``."""

__version__ = "0.1.0"
