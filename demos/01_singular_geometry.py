"""Tour of the small-matrix primitives: singular values, exterior powers,
and principal angles between subspaces held as orthonormal frames."""

import numpy as np

from affinedim import (
    SubspaceFrame,
    exterior_power,
    principal_angle_distance,
    singular_values,
)

a = np.array([[0.3, 0.1], [0.0, 0.2]])
print("A =\n", a)
sv = singular_values(a)
print("singular values (ascending):", sv)
print("product vs |det|:", np.prod(sv), abs(np.linalg.det(a)))

# exterior powers multiply like the matrices themselves
b = np.array([[0.4, -0.1], [0.2, 0.3]])
p2 = exterior_power(a @ b, 2)
print("\n2nd compound of AB:", p2.ravel(), " vs det(A)det(B):",
      np.linalg.det(a) * np.linalg.det(b))

c = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 3.0, 6.0]])
print("\nPascal matrix 2nd compound (entries are all 2x2 minors):\n", exterior_power(c, 2))

# Grassmannian distance
u = SubspaceFrame(np.eye(3)[:, [0, 1]])
w = SubspaceFrame(np.eye(3)[:, [1, 2]])
print("\nsin of largest principal angle between xy- and yz-planes:",
      principal_angle_distance(u, w))
