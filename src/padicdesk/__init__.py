"""padicdesk: exact p-adic desk calculator.

Modules:
  rationals   -- p-adic valuations and unit parts of rationals
  cyclotomic  -- exact cyclotomic field arithmetic
  artinian    -- truncated nilpotent coefficient rings
  matrices    -- exact matrices and determinants over any ring, permutation
                 signs and cycles, row reduction over Q and Z/m
  polynomials -- fraction-free echelon, nullspace; `Poly`, kept as the test oracle
  mahler      -- binomial calculus, unit boxes, root-of-unity expansions
  tate        -- nilpotent derivations on truncated Tate algebras
  glrep       -- GL weight combinatorics and irreducible function models
  branch      -- branching eigenvectors and box restrictions
  uea         -- enveloping-algebra words, determinant operators, dual numbers
  iwahori     -- explicit matrices and congruence-subgroup combinatorics
  characters  -- finite-order unit characters and Gauss sums
  interp      -- epsilon factors and interpolation constants
  suites      -- verification suites
  cli         -- command-line front end
"""

__version__ = "0.1.0"
