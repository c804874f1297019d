/* Fig. 5 of the paper, unit A: the helper that fig5_driver.c calls
   across the unit boundary. */
int helper(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += i;
  return s;
}
