"""Clifford synthesis: tableau-to-circuit compilers."""
