"""godspell: segmentation, authorless topic modeling, a two-stage
divine-action annotation cascade, agreement metrics, and corpus statistics
for collections of long-form fiction.

Importing the package imports none of its modules, so a command loads only
what it uses: numpy comes with ``topics`` (``topics-train``,
``topics-inspect``, ``stats``), the compiled kernel of ``_sweep`` only with
``topics-train``. numpy is the one runtime dependency."""

__version__ = "0.1.0"
