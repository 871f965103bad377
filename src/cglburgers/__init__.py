"""Simulation and spectral-stability toolkit for coupled CGL-Burgers dynamics."""
