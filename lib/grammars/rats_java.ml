(* RatsJava: the second Java grammar of the paper's suite (Figure 12), a
   Rats! PEG grammar converted to ANTLR syntax.  Deliberately structured the
   PEG way rather than the hand-factored LL way: unfactored ordered choices
   that rely on backtracking, the style a PEG author writes because ordered
   choice makes factoring unnecessary.  Exercises more backtracking than
   MiniJava on the same language (the paper's Table 3 shows RatsJava's
   parsers backtrack an order of magnitude more often than Java1.5's). *)

let name = "RatsJava"

let grammar_text =
  {|
grammar RatsJava;
options { backtrack=true; memoize=true; }

compilationUnit : packageDecl? importDecl* typeDecl* ;

packageDecl : 'package' qname ';' ;

importDecl : 'import' qname ('.' '*')? ';' ;

qname : ID ('.' ID)* ;

typeDecl : modifier* 'class' ID ('extends' type)? classBody | ';' ;

classBody : '{' member* '}' ;

member
  : modifier* type ID '(' params? ')' block
  | modifier* type ID '(' params? ')' ';'
  | modifier* type declarators ';'
  | modifier* 'void' ID '(' params? ')' block
  | modifier* ID '(' params? ')' block
  | ';'
  ;

modifier : 'public' | 'private' | 'protected' | 'static' | 'final' | 'abstract' ;

type : ('int' | 'boolean' | 'char' | 'double' | qname) ('[' ']')* ;

declarators : declarator (',' declarator)* ;

declarator : ID ('=' expression)? ;

params : param (',' param)* ;

param : type ID ;

block : '{' statement* '}' ;

statement
  : block
  | 'if' '(' expression ')' statement 'else' statement
  | 'if' '(' expression ')' statement
  | 'while' '(' expression ')' statement
  | 'for' '(' forInit? ';' expression? ';' exprList? ')' statement
  | 'return' expression ';'
  | 'return' ';'
  | 'break' ';'
  | 'continue' ';'
  | 'throw' expression ';'
  | type declarators ';'
  | expression ';'
  | ';'
  ;

forInit : type declarators | exprList ;

exprList : expression (',' expression)* ;

expression
  : unary assignOp expression
  | ternary
  ;

assignOp : '=' | '+=' | '-=' | '*=' | '/=' ;

ternary : orExpr ('?' expression ':' expression)? ;

orExpr : andExpr ('||' andExpr)* ;

andExpr : eqExpr ('&&' eqExpr)* ;

eqExpr : relExpr (('==' | '!=') relExpr)* ;

relExpr : addExpr (('<=' | '>=' | '<' | '>') addExpr)* ;

addExpr : mulExpr (('+' | '-') mulExpr)* ;

mulExpr : unary (('*' | '/' | '%') unary)* ;

unary
  : ('+' | '-' | '!') unary
  | '(' ('int' | 'boolean' | 'char' | 'double') ')' unary
  | postfix
  ;

postfix : primary suffix* ;

suffix
  : '.' ID '(' exprList? ')'
  | '.' ID
  | '[' expression ']'
  | '++'
  | '--'
  ;

primary
  : '(' expression ')'
  | 'new' type '(' exprList? ')'
  | 'new' type '[' expression ']'
  | ID '(' exprList? ')'
  | ID
  | 'this'
  | INT
  | FLOAT
  | STRING
  | CHAR
  | 'true'
  | 'false'
  | 'null'
  ;
|}

let lexer_config =
  {
    Runtime.Lexer_engine.default_config with
    float_token = Some "FLOAT";
    string_token = Some "STRING";
    char_token = Some "CHAR";
  }

let samples =
  [
    {|
package demo.pegstyle;

import java.util.List;

public class Matrix {
  private double[] cells;
  private int rows, cols;

  public Matrix(int r, int c) {
    rows = r;
    cols = c;
    cells = new double[r];
  }

  double get(int r, int c) {
    return cells[r * cols + c];
  }

  void set(int r, int c, double v) {
    cells[r * cols + c] = v;
  }

  double trace() {
    double acc = 0.0;
    for (int i = 0; i < rows; i++) {
      acc += this.get(i, i);
    }
    return acc;
  }

  boolean isSquare() {
    if (rows == cols) {
      return true;
    } else {
      return false;
    }
  }
}

class Runner {
  static int steps;

  public static void main(String[] args) {
    Matrix m = new Matrix(3, 3);
    int i = 0;
    while (i < 3) {
      m.set(i, i, 1.0);
      i = i + 1;
    }
    steps = m.isSquare() ? (int) m.trace() : -1;
  }
}
|};
    {|
package demo.pegstyle;

class Tokenizer {
  private char[] buf;
  private int pos, mark;

  boolean done() {
    return pos >= buf.length;
  }

  char peek() {
    if (this.done()) {
      return 'e';
    }
    return buf[pos];
  }

  int scanNumber() {
    int value = 0;
    while (!done()) {
      int d = digit(peek());
      if (d < 0) {
        break;
      }
      value = value * 10 + d;
      pos++;
    }
    return value;
  }

  int digit(char c) {
    for (int i = 0; i < 10; i = i + 1) {
      if (codes[i] == c) {
        return i;
      }
    }
    return -1;
  }

  void reset() {
    pos = mark;
    errors = 0.0;
    throw fatal("reset");
  }
}
|};
  ]

let idents =
  [|
    "arr"; "bag"; "cnt"; "dim"; "ent"; "fix"; "grid"; "hit"; "it"; "jmp";
    "keys"; "lim"; "map"; "nxt"; "ord"; "pos"; "quo"; "ref"; "sz"; "tab";
    "unit"; "vals"; "w"; "xx"; "yy"; "zz";
  |]

let sample_lexeme i = function
  | "ID" -> idents.(i mod Array.length idents)
  | "INT" -> string_of_int (i mod 256)
  | "FLOAT" -> Printf.sprintf "%d.%d" (i mod 16) (i mod 10)
  | "STRING" -> "\"s\""
  | "CHAR" -> "'c'"
  | other -> other

let spec : Workload.spec =
  {
    name;
    grammar_text;
    lexer_config;
    samples;
    sample_lexeme;
    sem_preds = [];
    gen_start = None;
  }

(* The memoization stress input (section 6.2): one assignment whose
   target is indexed [depth] times, [xs [ xs [ ... 1 ... ] ] = 1.0 ;].
   The PEG expression rules try each nesting level twice, so without
   memoization the work doubles with every level; with it, it grows
   linearly. *)
let nested_index_program (depth : int) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "class S { void f ( ) { ";
  for _ = 1 to depth do
    Buffer.add_string buf "xs [ "
  done;
  Buffer.add_string buf "1 ";
  for _ = 1 to depth do
    Buffer.add_string buf "] "
  done;
  Buffer.add_string buf "= 1.0 ; } }";
  Buffer.contents buf
