"""The performance ledger: the repository's benchmark (see ``run.py``)."""
