"""End-to-end benchmark of the MSSP reproduction (see README.md)."""
