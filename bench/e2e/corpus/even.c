/* Mutual recursion split across two translation units (with odd.c):
   every call of is_even/is_odd crosses the unit boundary. The calls are
   not in tail position: Asm (+) Asm mis-executes a cross-unit tail call
   made by a function that was itself called from inside its unit.
   query: parity_sum(64) = 992 with odd.c */
int is_odd(int n);

int is_even(int n) {
  if (n == 0) return 1;
  return is_odd(n - 1) & 1;
}

int parity_sum(int k) {
  int s = 0;
  for (int i = 0; i < k; i++) s += is_even(i) * i;
  return s;
}
