// gcc -O0 exit status: 42
// An `extern` prototype declares a function defined later in the file.
extern int g(int);
int main() { return g(3); }
int g(int x) { return x + 39; }
