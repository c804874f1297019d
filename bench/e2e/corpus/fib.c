/* Doubly recursive Fibonacci: one call and one return per few
   instructions.
   query: fib(16) = 987 */
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
