"""Campaign benchmark for the localization pipeline (see README.md)."""
