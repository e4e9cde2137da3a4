"""Corpus curation toolkit for grammatical error correction data.

Cleans multi-reference parallel corpora down to one target per source,
extracts character-level edits, converts to and from the M2 annotation
format, reports corpus statistics, and scores hypotheses against
multi-annotator gold with edit-level P/R/F0.5.

Each public name is imported from the submodule that defines it, such as
``gecclean.corpus`` or ``gecclean.onetarget``.  ``import gecclean`` loads
no submodule.
"""

__version__ = "0.1.0"
