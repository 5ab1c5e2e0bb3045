// gcc -O0 exit status: 42
// `extern` on a function definition defines the function.
extern int g(int x) { return x + 39; }
int main() { return g(3); }
