/* The other half of the mutual recursion in even.c. */
int is_even(int n);

int is_odd(int n) {
  if (n == 0) return 0;
  return is_even(n - 1) & 1;
}
