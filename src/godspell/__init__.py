"""godspell: segmentation, authorless topic modeling, a two-stage
divine-action annotation cascade, agreement metrics, and corpus statistics
for collections of long-form fiction.

Importing the package imports none of its modules, so a command loads only
what it uses. Every command is the standard library alone, plus the compiled
kernel of ``_sweep``, which only ``topics-train`` builds and loads (with a C
compiler); there is no runtime dependency."""

__version__ = "0.1.0"
