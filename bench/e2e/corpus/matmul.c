/* n x n matrix product over flat global arrays, returning the trace of
   the product (nonzero, so a dropped term shows): multiply-add inner
   loop, no calls.
   query: matmul(12) = -100 */
int A[144];
int B[144];
int C[144];

int matmul(int n) {
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++) {
      A[i * n + j] = (i * 7 + j * 3) % 11 - 5;
      B[i * n + j] = (i * 5 + j * 2) % 13 - 6;
    }
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++) {
      int acc = 0;
      for (int k = 0; k < n; k++) acc += A[i * n + k] * B[k * n + j];
      C[i * n + j] = acc;
    }
  int tr = 0;
  for (int i = 0; i < n; i++) tr += C[i * n + i];
  return tr;
}
