package minic

// Node is implemented by all AST nodes.
type Node interface {
	NodePos() Pos
}

// Expr is an expression node. Type is populated by the type checker.
type Expr interface {
	Node
	exprNode()
	// ResultType returns the checked type (nil before checking).
	ResultType() *Type
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// exprBase carries position and checked type for expressions.
type exprBase struct {
	Pos  Pos
	Type *Type // filled in by the checker
}

func (e *exprBase) NodePos() Pos      { return e.Pos }
func (e *exprBase) exprNode()         {}
func (e *exprBase) ResultType() *Type { return e.Type }

// ---- Expressions ----

// IntLitExpr is an integer or character literal.
type IntLitExpr struct {
	exprBase
	Value int64
}

// FloatLitExpr is a floating literal. Float32 marks an 'f'-suffixed literal.
type FloatLitExpr struct {
	exprBase
	Value   float64
	Float32 bool
}

// StringLitExpr is a string literal (decoded).
type StringLitExpr struct {
	exprBase
	Value string
}

// ImaginaryLitExpr is the imaginary unit I from <complex.h>.
type ImaginaryLitExpr struct {
	exprBase
}

// IdentExpr is a variable or function reference. Def links to the
// declaration after checking.
type IdentExpr struct {
	exprBase
	Name string
	Def  *VarDecl  // non-nil for variables
	Func *FuncDecl // non-nil for direct function references
}

// UnaryExpr covers - + ! ~ * (deref) & (addrof) and pre-inc/dec.
type UnaryExpr struct {
	exprBase
	Op   Kind // Minus, Plus, Not, Tilde, Star, Amp, PlusPlus, MinusMinus
	X    Expr
	Post bool // post-increment / post-decrement when Op is ++/--
}

// BinaryExpr is any binary operator except assignment.
type BinaryExpr struct {
	exprBase
	Op   Kind
	L, R Expr
}

// AssignExpr is = or a compound assignment.
type AssignExpr struct {
	exprBase
	Op   Kind // Assign, PlusAssign, ...
	L, R Expr
}

// CondExpr is the ternary operator.
type CondExpr struct {
	exprBase
	Cond, Then, Else Expr
}

// CallExpr is a function call. Builtin is set for recognized library
// functions (sin, malloc, printf, ...).
type CallExpr struct {
	exprBase
	Fun     Expr
	Args    []Expr
	Builtin string // empty for user functions
}

// IndexExpr is array/pointer subscripting.
type IndexExpr struct {
	exprBase
	X, Index Expr
}

// MemberExpr is struct member access: X.Name or X->Name (Arrow).
type MemberExpr struct {
	exprBase
	X          Expr
	Name       string
	Arrow      bool
	FieldIndex int // filled by checker
}

// CastExpr is an explicit conversion.
type CastExpr struct {
	exprBase
	To *Type
	X  Expr
}

// SizeofExpr is sizeof(type) or sizeof expr.
type SizeofExpr struct {
	exprBase
	OfType *Type // non-nil for sizeof(type)
	X      Expr  // non-nil for sizeof expr
}

// CommaExpr evaluates L then R, yielding R.
type CommaExpr struct {
	exprBase
	L, R Expr
}

// InitListExpr is a brace initializer list; appears only in declarations.
type InitListExpr struct {
	exprBase
	Items []Expr
}

// ---- Statements ----

// stmtBase carries positions for statements.
type stmtBase struct{ Pos Pos }

func (s *stmtBase) NodePos() Pos { return s.Pos }
func (s *stmtBase) stmtNode()    {}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	stmtBase
	X Expr
}

// DeclStmt declares one or more local variables.
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// BlockStmt is a brace-enclosed statement list.
type BlockStmt struct {
	stmtBase
	List []Stmt
}

// IfStmt is if/else.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// ForStmt is a for loop; any of Init/Cond/Post may be nil. Init may be a
// DeclStmt or ExprStmt.
type ForStmt struct {
	stmtBase
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// WhileStmt is while (Cond) Body or do Body while (Cond) when Do is set.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body Stmt
	Do   bool
}

// SwitchStmt is switch with flattened cases.
type SwitchStmt struct {
	stmtBase
	Tag   Expr
	Cases []*CaseClause
}

// CaseClause is one case (or default when IsDefault) of a switch.
type CaseClause struct {
	Pos       Pos
	Value     Expr // nil for default
	IsDefault bool
	Body      []Stmt
}

// BreakStmt breaks the innermost loop or switch.
type BreakStmt struct{ stmtBase }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ stmtBase }

// ReturnStmt returns from the current function; Value may be nil.
type ReturnStmt struct {
	stmtBase
	Value Expr
}

// ---- Declarations ----

// StorageClass captures static/extern markers (MiniC mostly ignores them).
type StorageClass int

// Storage classes.
const (
	SCNone StorageClass = iota
	SCStatic
	SCExtern
	SCTypedef
)

// VarDecl declares a variable (global, local, or parameter).
type VarDecl struct {
	Pos     Pos
	Name    string
	Type    *Type
	Init    Expr // may be nil; InitListExpr for aggregates
	Storage StorageClass
	IsParam bool
	Global  bool

	// Slot is the variable's storage index, assigned by Check. It counts
	// toward File.NumGlobals for globals and static locals (see
	// IsStatic) and toward its function's FuncDecl.NumSlots otherwise.
	Slot int
	// Escapes is set by Check when the program takes the variable's
	// address with &name.
	Escapes bool
}

// IsStatic reports whether the variable has static storage duration: a
// global or a function-scoped static. Its Slot indexes the globals.
func (v *VarDecl) IsStatic() bool { return v.Global || v.Storage == SCStatic }

// FuncDecl is a function definition or prototype (Body nil).
type FuncDecl struct {
	Pos    Pos
	Name   string
	Type   *Type // TFunc
	Params []*VarDecl
	Body   *BlockStmt // nil for prototypes
	Static bool
	// NumSlots is the frame size Check assigns: one slot per parameter
	// and automatic local.
	NumSlots int
}

// StructDecl is a named struct definition.
type StructDecl struct {
	Pos  Pos
	Name string
	Type *Type
}

// TypedefDecl binds a name to a type.
type TypedefDecl struct {
	Pos  Pos
	Name string
	Type *Type
}

// File is a parsed translation unit.
type File struct {
	Name     string
	Funcs    []*FuncDecl
	Globals  []*VarDecl
	Structs  []*StructDecl
	Typedefs []*TypedefDecl
	// NumGlobals is the number of static-storage slots Check assigns
	// (globals and function-scoped statics).
	NumGlobals int
}

// Func returns the function with the given name, or nil.
func (f *File) Func(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// FuncNames returns the names of all defined (non-prototype) functions in
// declaration order.
func (f *File) FuncNames() []string {
	var names []string
	for _, fn := range f.Funcs {
		if fn.Body != nil {
			names = append(names, fn.Name)
		}
	}
	return names
}
