"""End-to-end and per-layer benchmark of the graphpde command line."""
