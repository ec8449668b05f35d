"""End-to-end benchmark of whole experiment cells (see README.md)."""
