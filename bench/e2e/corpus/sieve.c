/* Sieve of Eratosthenes over a global byte array: byte loads and
   stores in nested loops, no calls.
   query: sieve(4000) = 550 */
char composite[4000];

int sieve(int n) {
  int count = 0;
  for (int i = 2; i < n; i++) {
    if (!composite[i]) {
      count++;
      for (int j = i + i; j < n; j += i) composite[j] = 1;
    }
  }
  return count;
}
