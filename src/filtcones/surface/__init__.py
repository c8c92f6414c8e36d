"""Exact combinatorial Floer theory for PL curves on the flat torus.

The torus is the square [-1,1] x [-1,1] with opposite sides identified
(side length 2).  All geometry is exact rational; transversality is
exact and near-degenerate inputs must be perturbed by the caller.
"""
