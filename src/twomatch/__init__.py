"""twomatch: exact maximum matchings and optimal pairs of edge-disjoint
matchings, with machine verification of the structural facts bounding the
ratio between the two optima by 5/4."""
