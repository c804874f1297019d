/* Bubble sort of n pseudo-random ints (an in-program LCG, wrapping
   arithmetic), then a rolling checksum: data-dependent branches and
   word loads/stores, no calls.
   query: bubble(96) = -121363113 */
int a[96];

int bubble(int n) {
  int x = 12345;
  for (int i = 0; i < n; i++) {
    x = x * 1103515245 + 12345;
    a[i] = (x >> 16) & 1023;
  }
  for (int i = 0; i < n; i++)
    for (int j = 0; j + 1 < n - i; j++)
      if (a[j] > a[j + 1]) {
        int t = a[j];
        a[j] = a[j + 1];
        a[j + 1] = t;
      }
  int s = 0;
  for (int i = 0; i < n; i++) s = s * 31 + a[i];
  return s;
}
